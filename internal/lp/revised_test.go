package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// assertAgree fails unless the two solutions carry the same status and, when
// optimal, objectives within the differential tolerance the cutting-plane
// solver relies on.
func assertAgree(t *testing.T, label string, rev, dense *Solution) {
	t.Helper()
	if rev.Status != dense.Status {
		t.Fatalf("%s: status revised=%v dense=%v", label, rev.Status, dense.Status)
	}
	if dense.Status != Optimal {
		return
	}
	if d := math.Abs(rev.Objective - dense.Objective); d > 1e-6*math.Max(1, math.Abs(dense.Objective)) {
		t.Fatalf("%s: objective revised=%g dense=%g (diff %g)", label, rev.Objective, dense.Objective, d)
	}
}

// assertAgreeOptimal is assertAgree plus assertOptimal on both solutions when
// they are Optimal: the revised one with the handle's duals (cold or warm), the
// dense one with its own.
func assertAgreeOptimal(t *testing.T, label string, rv *Revised, rev, dense *Solution) {
	t.Helper()
	assertAgree(t, label, rev, dense)
	if dense.Status == Optimal {
		assertRevisedOptimal(t, rv, rev)
		assertOptimal(t, rv.p, dense)
	}
}

// randomBoundedLP builds a random LP with mixed LE/GE/EQ rows, any-sign
// right-hand sides and box constraints keeping it bounded.
func randomBoundedLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(5)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjectiveCoeff(j, rng.Float64()*2-0.5)
	}
	rows := 1 + rng.Intn(6)
	for i := 0; i < rows; i++ {
		coeffs := make([]float64, n)
		for j := range coeffs {
			if rng.Intn(2) == 0 {
				coeffs[j] = rng.Float64()*4 - 2
			}
		}
		p.addDense(coeffs, Relation(rng.Intn(3)), rng.Float64()*10-3)
	}
	for j := 0; j < n; j++ {
		coeffs := make([]float64, n)
		coeffs[j] = 1
		p.addDense(coeffs, LE, 5)
	}
	return p
}

// TestRevisedMatchesDenseOnRandomLPs is the base differential property: on
// random mixed-relation LPs (feasible, infeasible and degenerate alike) the
// revised solver must reach the dense simplex's verdict and objective.
func TestRevisedMatchesDenseOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		p := randomBoundedLP(rng)
		dense, err := denseSolve(p, nil)
		if err != nil {
			t.Fatalf("iter %d dense: %v", iter, err)
		}
		rv := NewRevised(p, nil)
		rsol, err := rv.Solve()
		if err != nil {
			t.Fatalf("iter %d revised: %v", iter, err)
		}
		assertAgreeOptimal(t, "random", rv, rsol, dense)
	}
}

// TestRevisedWarmAppendMatchesDense replays warm append-and-resolve cycles —
// the cutting-plane access pattern — against cold dense solves of the same
// accumulated problem.
func TestRevisedWarmAppendMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(4)
		p := NewProblem(n)
		q := NewProblem(n)
		for j := 0; j < n; j++ {
			c := rng.Float64()
			p.SetObjectiveCoeff(j, c)
			q.SetObjectiveCoeff(j, c)
		}
		for j := 0; j < n; j++ {
			coeffs := make([]float64, n)
			coeffs[j] = 1
			p.addDense(coeffs, LE, 3)
			q.addDense(append([]float64(nil), coeffs...), LE, 3)
		}
		rv := NewRevised(p, nil)
		if sol, err := rv.Solve(); err != nil {
			t.Fatalf("iter %d cold: %v", iter, err)
		} else {
			assertRevisedOptimal(t, rv, sol)
		}
		for stage := 0; stage < 4; stage++ {
			coeffs := make([]float64, n)
			for j := range coeffs {
				if rng.Intn(2) == 0 {
					coeffs[j] = rng.Float64()*3 - 1
				}
			}
			rel := Relation(rng.Intn(3))
			rhs := rng.Float64() * 4
			rv.p.addDense(coeffs, rel, rhs)
			q.addDense(append([]float64(nil), coeffs...), rel, rhs)
			rsol, err := rv.Solve()
			if err != nil {
				t.Fatalf("iter %d stage %d revised: %v", iter, stage, err)
			}
			dense, err := denseSolve(q, nil)
			if err != nil {
				t.Fatalf("iter %d stage %d dense: %v", iter, stage, err)
			}
			assertAgreeOptimal(t, "warm append", rv, rsol, dense)
			if dense.Status != Optimal {
				break
			}
		}
	}
}

// TestRevisedUnitLPs pins the revised solver against the dense reference on
// hand-written corner cases: every relation kind, negative
// right-hand sides, infeasibility, unboundedness and the empty problem.
func TestRevisedUnitLPs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Problem
	}{
		{"le", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 3)
			p.SetObjectiveCoeff(1, 5)
			p.addDense([]float64{1, 0}, LE, 4)
			p.addDense([]float64{0, 2}, LE, 12)
			p.addDense([]float64{3, 2}, LE, 18)
			return p
		}},
		{"ge", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			p.SetObjectiveCoeff(1, 1)
			p.addDense([]float64{1, 1}, GE, 2)
			p.addDense([]float64{1, 0}, LE, 3)
			p.addDense([]float64{0, 1}, LE, 3)
			return p
		}},
		{"eq", func() *Problem {
			p := NewProblem(3)
			p.SetObjectiveCoeff(0, 2)
			p.SetObjectiveCoeff(1, 3)
			p.addDense([]float64{1, 1, 1}, EQ, 10)
			p.addDense([]float64{1, 0, 0}, LE, 4)
			p.addDense([]float64{0, 1, 0}, LE, 6)
			return p
		}},
		{"negative-rhs", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			p.addDense([]float64{-1, -1}, LE, -2)
			p.addDense([]float64{1, 0}, LE, 5)
			p.addDense([]float64{0, 1}, LE, 5)
			return p
		}},
		{"infeasible", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			p.addDense([]float64{1, 1}, LE, 1)
			p.addDense([]float64{1, 1}, GE, 3)
			return p
		}},
		{"infeasible-eq", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			p.addDense([]float64{1, 0}, EQ, 2)
			p.addDense([]float64{1, 0}, EQ, 3)
			return p
		}},
		{"unbounded", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			p.addDense([]float64{0, 1}, LE, 1)
			return p
		}},
		{"empty", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			return p
		}},
		{"degenerate", func() *Problem {
			p := NewProblem(2)
			p.SetObjectiveCoeff(0, 1)
			p.SetObjectiveCoeff(1, 1)
			p.addDense([]float64{1, 1}, LE, 2)
			p.addDense([]float64{1, 1}, LE, 2)
			p.addDense([]float64{1, 0}, LE, 2)
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			dense, err := denseSolve(p, nil)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			rv := NewRevised(p, nil)
			rsol, err := rv.Solve()
			if err != nil {
				t.Fatalf("revised: %v", err)
			}
			assertAgreeOptimal(t, tc.name, rv, rsol, dense)
			if dense.Status == Optimal {
				for j := range dense.X {
					if d := math.Abs(dense.X[j] - rsol.X[j]); d > 1e-6 {
						t.Errorf("x[%d]: revised %g dense %g", j, rsol.X[j], dense.X[j])
					}
				}
			}
		})
	}
}

// TestRevisedWarmAcrossObjectiveChange: the revised solver reprices from the
// factorization, so a changed objective alone keeps the previous basis warm.
func TestRevisedWarmAcrossObjectiveChange(t *testing.T) {
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetObjectiveCoeff(j, 1)
		coeffs := make([]float64, 3)
		coeffs[j] = 1
		p.addDense(coeffs, LE, float64(j+1))
	}
	p.addDense([]float64{1, 1, 1}, LE, 4)
	rv := NewRevised(p, nil)
	if sol, err := rv.Solve(); err != nil {
		t.Fatal(err)
	} else {
		assertRevisedOptimal(t, rv, sol)
	}
	if rv.LastWarm() {
		t.Fatal("first solve reported warm")
	}
	p.SetObjectiveCoeff(0, 9)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !rv.LastWarm() {
		t.Fatal("objective-only change should keep the basis warm")
	}
	dense, err := denseSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeOptimal(t, "objective change", rv, sol, dense)
}

// reconstructColumn multiplies the factor back out: column step s of P·G·Q
// as the L-image of U's column s, scattered over core-row slots.
func reconstructColumn(f *sparseLU, s int, x []float64) {
	for i := range x {
		x[i] = 0
	}
	apply := func(t int32, u float64) {
		x[f.stepRow[t]] += u
		for e := f.lp[t]; e < f.lp[t+1]; e++ {
			x[f.li[e]] += u * f.lx[e]
		}
	}
	for e := f.up[s]; e < f.up[s+1]; e++ {
		apply(f.ui[e], f.ux[e])
	}
	apply(int32(s), f.ud[s])
}

// TestSparseLUReconstructsRandomCores is the factorization property test:
// P·G·Q = L·U must hold entrywise within a roundoff bound for random sparse
// nonsingular cores (diagonally seeded, with random fill).
func TestSparseLUReconstructsRandomCores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(40)
		dense := make([]float64, k*k)
		for i := 0; i < k; i++ {
			dense[i*k+i] = 1 + rng.Float64()*4
			extra := rng.Intn(4)
			for e := 0; e < extra; e++ {
				dense[i*k+rng.Intn(k)] = rng.Float64()*6 - 3
			}
		}
		var cp, ri []int32
		var vx []float64
		cp = append(cp, 0)
		maxAbs := 0.0
		for c := 0; c < k; c++ {
			for r := 0; r < k; r++ {
				if v := dense[r*k+c]; v != 0 {
					ri = append(ri, int32(r))
					vx = append(vx, v)
					if math.Abs(v) > maxAbs {
						maxAbs = math.Abs(v)
					}
				}
			}
			cp = append(cp, int32(len(ri)))
		}
		var f sparseLU
		if !f.factor(cp, ri, vx, k) {
			t.Fatalf("iter %d: factor reported singular for a diagonally seeded core", iter)
		}
		x := make([]float64, k)
		for s := 0; s < k; s++ {
			c := int(f.colOf[s])
			reconstructColumn(&f, s, x)
			for e := cp[c]; e < cp[c+1]; e++ {
				x[ri[e]] -= vx[e]
			}
			for r, v := range x {
				if math.Abs(v) > 1e-10*(1+maxAbs) {
					t.Fatalf("iter %d k=%d: |G - LU| at (%d,step %d) = %g", iter, k, r, s, v)
				}
			}
		}
	}
}

// TestSparseLUReconstructsSolverCore re-runs the reconstruction bound on the
// factorization an actual solve produced: the CSC snapshot the solver handed
// to the factorization must match L·U within roundoff of the column scale.
func TestSparseLUReconstructsSolverCore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomMasterLP(rng, 24, 40)
	rv := NewRevised(p, nil)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	assertRevisedOptimal(t, rv, sol)
	// Refactorize the final optimal basis explicitly: its core holds the
	// structural basics the optimum stands on.
	if !rv.refactor() {
		t.Fatal("refactorization of the optimal basis reported singular")
	}
	fs := &rv.fs
	if !fs.valid || fs.k == 0 {
		t.Fatalf("expected a valid factorization with a nonempty core, got valid=%v k=%d", fs.valid, fs.k)
	}
	maxAbs := 0.0
	for _, v := range fs.cvx {
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
	}
	x := make([]float64, fs.k)
	for s := 0; s < fs.k; s++ {
		c := int(fs.slu.colOf[s])
		reconstructColumn(&fs.slu, s, x)
		for e := fs.ccp[c]; e < fs.ccp[c+1]; e++ {
			x[fs.cri[e]] -= fs.cvx[e]
		}
		for r, v := range x {
			if math.Abs(v) > 1e-9*(1+maxAbs) {
				t.Fatalf("|G - LU| at (%d,step %d) = %g (k=%d)", r, s, v, fs.k)
			}
		}
	}
}

// randomMasterLP builds a master-shaped LP: non-negative objective, box
// rows, and dense-ish LE cut rows with non-negative right-hand sides.
func randomMasterLP(rng *rand.Rand, nVars, cuts int) *Problem {
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetObjectiveCoeff(j, rng.Float64()+0.1)
		coeffs := make([]float64, nVars)
		coeffs[j] = 1
		p.addDense(coeffs, LE, 1+rng.Float64())
	}
	for i := 0; i < cuts; i++ {
		coeffs := make([]float64, nVars)
		for j := range coeffs {
			if rng.Intn(3) == 0 {
				coeffs[j] = rng.Float64()*2 - 0.5
			}
		}
		p.addDense(coeffs, LE, 0.5+rng.Float64()*2)
	}
	return p
}

// TestRevisedEtaChainBoundedByTrigger: the eta file never grows past the
// refactorization trigger, for the default trigger and for overridden ones.
func TestRevisedEtaChainBoundedByTrigger(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, interval := range []int{0, 1, 4, 8} {
		want := interval
		if want == 0 {
			want = etaLimit
		}
		for iter := 0; iter < 10; iter++ {
			p := randomMasterLP(rng, 16, 24)
			rv := NewRevised(p, nil)
			rv.refactorInterval = interval
			if sol, err := rv.Solve(); err != nil {
				t.Fatalf("interval %d iter %d: %v", interval, iter, err)
			} else {
				assertRevisedOptimal(t, rv, sol)
			}
			// Append rows to force warm dual re-solves through the trigger.
			for stage := 0; stage < 3; stage++ {
				coeffs := make([]float64, 16)
				for j := range coeffs {
					if rng.Intn(2) == 0 {
						coeffs[j] = rng.Float64()
					}
				}
				rv.p.addDense(coeffs, LE, rng.Float64())
				if sol, err := rv.Solve(); err != nil {
					t.Fatalf("interval %d iter %d stage %d: %v", interval, iter, stage, err)
				} else {
					assertRevisedOptimal(t, rv, sol)
				}
			}
			if got := rv.FactorStats().MaxEtaChain; got > want {
				t.Fatalf("interval %d: eta chain reached %d, trigger is %d", interval, got, want)
			}
			if rv.FactorStats().Refactors < 1 {
				t.Fatalf("interval %d: no refactorizations recorded", interval)
			}
		}
	}
}

// hilbertLP builds an ill-conditioned fixture: Hilbert-matrix rows (condition
// number ~1e10 at n=8) over box-bounded variables. Near-degenerate and
// numerically hostile, it exercises the growth trigger and the certification
// retry without leaving the feasible/bounded regime.
func hilbertLP(n int) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjectiveCoeff(j, 1)
		coeffs := make([]float64, n)
		coeffs[j] = 1
		p.addDense(coeffs, LE, 10)
	}
	for i := 0; i < n; i++ {
		coeffs := make([]float64, n)
		for j := 0; j < n; j++ {
			coeffs[j] = 1 / float64(i+j+1)
		}
		p.addDense(coeffs, LE, 1)
	}
	return p
}

// nearDegenerateLP stacks almost-parallel rows differing by tiny
// perturbations — the classic source of stale eta chains and unstable
// pivots.
func nearDegenerateLP(n int, eps float64) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjectiveCoeff(j, 1+float64(j)*eps)
		coeffs := make([]float64, n)
		coeffs[j] = 1
		p.addDense(coeffs, LE, 2)
	}
	base := make([]float64, n)
	for j := range base {
		base[j] = 1
	}
	for i := 0; i < 2*n; i++ {
		coeffs := append([]float64(nil), base...)
		coeffs[i%n] += eps * float64(i+1)
		p.addDense(coeffs, LE, float64(n)/2)
	}
	return p
}

// TestRevisedIllConditionedFixtures runs the numerically hostile fixture
// family through both solvers under aggressive refactorization intervals:
// verdicts and objectives must still agree, both optima must pass
// assertOptimal, the eta chain must respect the trigger, and the
// refactorization machinery must actually have run. Revised has no second
// solver to fall back on: every fixture must solve on it.
func TestRevisedIllConditionedFixtures(t *testing.T) {
	fixtures := []struct {
		name string
		p    *Problem
	}{
		{"hilbert-6", hilbertLP(6)},
		{"hilbert-8", hilbertLP(8)},
		{"hilbert-10", hilbertLP(10)},
		{"near-degenerate-1e-9", nearDegenerateLP(8, 1e-9)},
		{"near-degenerate-1e-11", nearDegenerateLP(8, 1e-11)},
	}
	for _, fx := range fixtures {
		for _, interval := range []int{0, 2} {
			t.Run(fx.name, func(t *testing.T) {
				dense, err := denseSolve(fx.p, nil)
				if err != nil {
					t.Fatalf("dense: %v", err)
				}
				rv := NewRevised(fx.p, nil)
				rv.refactorInterval = interval
				rsol, err := rv.Solve()
				if err != nil {
					t.Fatalf("revised: %v", err)
				}
				assertAgreeOptimal(t, fx.name, rv, rsol, dense)
				st := rv.FactorStats()
				if st.Refactors < 1 {
					t.Fatal("no refactorizations on an ill-conditioned fixture")
				}
				want := interval
				if want == 0 {
					want = etaLimit
				}
				if st.MaxEtaChain > want {
					t.Fatalf("eta chain %d exceeded trigger %d", st.MaxEtaChain, want)
				}
			})
		}
	}
}

// TestRevisedWarmPivotAllocs is the allocation bench-guard for the warm hot
// path: a warm re-solve allocates only its Solution (and the X slice inside),
// never per-pivot scratch — the slabs and the eta file are arena-backed. The
// bound must hold on a small and a cut-heavy master alike, pinning
// independence from the pivot count.
func TestRevisedWarmPivotAllocs(t *testing.T) {
	for _, size := range []struct {
		name string
		vars int
		cuts int
	}{{"small", 8, 6}, {"cut-heavy", 24, 60}} {
		t.Run(size.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			p := randomMasterLP(rng, size.vars, size.cuts)
			rv := NewRevised(p, nil)
			if _, err := rv.Solve(); err != nil {
				t.Fatal(err)
			}
			// Toggle the objective between two vectors: each warm re-solve
			// reprices and pivots back, exercising the full FTRAN/BTRAN/eta
			// path without appending rows.
			flip := false
			var last *Solution
			allocs := testing.AllocsPerRun(50, func() {
				flip = !flip
				c := 2.0
				if flip {
					c = 0.25
				}
				for j := 0; j < size.vars/2; j++ {
					p.SetObjectiveCoeff(j, c)
				}
				sol, err := rv.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != Optimal || !rv.LastWarm() {
					t.Fatalf("warm re-solve: status=%v warm=%v", sol.Status, rv.LastWarm())
				}
				last = sol
			})
			assertRevisedOptimal(t, rv, last)
			// One Solution, one X slice, one Dual-free warm result: anything
			// above this small constant means the pivot loop allocates.
			if allocs > 4 {
				t.Fatalf("warm re-solve allocates %v objects per run, want <= 4", allocs)
			}
		})
	}
}

// TestRevisedSolveContextPreCanceled: a canceled context fails fast with
// ErrCanceled and context.Canceled.
func TestRevisedSolveContextPreCanceled(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.addDense([]float64{1, 1}, LE, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rv := NewRevised(p, nil)
	if _, err := rv.SolveContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The handle must stay usable.
	sol, err := rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve after cancellation: sol=%+v err=%v", sol, err)
	}
	assertRevisedOptimal(t, rv, sol)
}

// TestRevisedCanceledSolveNeverReusesFactorizationWarm is the cancellation
// contract of the factorized state: a solve canceled mid-flight discards its
// factorization — the next solve runs cold, never from the interrupted basis
// — and the solve after that one warm-starts again.
func TestRevisedCanceledSolveNeverReusesFactorizationWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomMasterLP(rng, 12, 10)
	rv := NewRevised(p, nil)
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}
	addRow := func() {
		coeffs := make([]float64, 12)
		for j := range coeffs {
			coeffs[j] = rng.Float64()
		}
		rv.p.addDense(coeffs, LE, rng.Float64()+0.2)
	}

	for round := 0; round < 3; round++ {
		addRow()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := rv.SolveContext(ctx); !errors.Is(err, ErrCanceled) {
			t.Fatalf("round %d: want ErrCanceled, got %v", round, err)
		}
		if rv.fs.valid || rv.built {
			t.Fatalf("round %d: canceled solve left a live factorization (valid=%v built=%v)",
				round, rv.fs.valid, rv.built)
		}
		cold := rv.Stats().ColdSolves
		sol, err := rv.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("round %d: re-solve after cancel: sol=%+v err=%v", round, sol, err)
		}
		assertRevisedOptimal(t, rv, sol)
		if rv.LastWarm() {
			t.Fatalf("round %d: solve after cancellation reused the discarded basis warm", round)
		}
		if rv.Stats().ColdSolves != cold+1 {
			t.Fatalf("round %d: expected a cold solve after cancellation", round)
		}
	}

	// A cancellation costs the one cold solve: the next append warm-starts.
	addRow()
	sol, err := rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("final warm solve: sol=%+v err=%v", sol, err)
	}
	assertRevisedOptimal(t, rv, sol)
	if !rv.LastWarm() {
		t.Fatal("the handle stopped warm-starting after cancellations")
	}
}

// TestRevisedContextCancellationMidSolve cancels concurrently with a large
// cold solve; whichever side wins, the handle must end consistent and
// re-solvable. Run with -race in CI.
func TestRevisedContextCancellationMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomMasterLP(rng, 60, 120)
	rv := NewRevised(p, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		cancel()
		close(done)
	}()
	_, err := rv.SolveContext(ctx)
	<-done
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	sol, err := rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("re-solve after racing cancel: sol=%+v err=%v", sol, err)
	}
	dense, err := denseSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeOptimal(t, "post-cancel", rv, sol, dense)
}

// TestRevisedWarmStartsAfterFirstSolve pins the warm path on a
// cutting-plane-shaped problem (maximize tp under tp <= x0 + x1 style rows):
// a cut that does not bind costs zero pivots, a violated one re-optimizes
// from the old basis.
func TestRevisedWarmStartsAfterFirstSolve(t *testing.T) {
	p := NewProblem(3) // x0, x1, tp
	p.SetObjectiveCoeff(2, 1)
	p.addDense([]float64{1, 0, 0}, LE, 4)
	p.addDense([]float64{0, 1, 0}, LE, 2)
	p.addDense([]float64{-1, -1, 1}, LE, 0) // tp <= x0 + x1

	rv := NewRevised(p, nil)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-6) > 1e-9 {
		t.Fatalf("first solve: %+v", sol)
	}
	assertRevisedOptimal(t, rv, sol)
	if rv.LastWarm() {
		t.Fatal("first solve claims to be warm")
	}

	rv.p.addDense([]float64{0, 0, 1}, LE, 100)
	sol, err = rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !rv.LastWarm() || sol.Status != Optimal || sol.Iterations != 0 {
		t.Fatalf("non-binding cut: warm=%v status=%v iterations=%d", rv.LastWarm(), sol.Status, sol.Iterations)
	}
	if math.Abs(sol.Objective-6) > 1e-9 {
		t.Fatalf("objective moved to %v", sol.Objective)
	}
	assertRevisedOptimal(t, rv, sol)

	rv.p.addDense([]float64{0, 0, 1}, LE, 5)
	sol, err = rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !rv.LastWarm() || sol.Status != Optimal {
		t.Fatalf("violated cut: warm=%v status=%v", rv.LastWarm(), sol.Status)
	}
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("objective = %v, want 5", sol.Objective)
	}
	assertRevisedOptimal(t, rv, sol)
	if st := rv.Stats(); st.ColdSolves != 1 || st.WarmSolves != 2 {
		t.Fatalf("stats = %+v, want 1 cold / 2 warm", st)
	}
}

// TestRevisedGEAndEQRowsWarm: GE and EQ rows appended after the first solve
// are priced warm (negated, and split into a signed pair) and must match cold
// dense solves of the same growing problem.
func TestRevisedGEAndEQRowsWarm(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.addDense([]float64{1, 0}, LE, 3)
	p.addDense([]float64{0, 1}, LE, 4)
	rv := NewRevised(p, nil)
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}

	rv.p.addDense([]float64{1, 1}, GE, 2) // slack at the optimum
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !rv.LastWarm() || sol.Status != Optimal || math.Abs(sol.Objective-7) > 1e-9 {
		t.Fatalf("after GE: warm=%v %+v", rv.LastWarm(), sol)
	}
	assertRevisedOptimal(t, rv, sol)

	rv.p.AddSparseConstraint([]Term{{Var: 0, Coeff: 1}}, EQ, 1) // binds x to 1
	sol, err = rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !rv.LastWarm() || sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("after EQ: warm=%v %+v", rv.LastWarm(), sol)
	}
	if math.Abs(sol.X[0]-1) > 1e-9 {
		t.Fatalf("x = %v, want 1", sol.X[0])
	}
	dense, err := denseSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeOptimal(t, "GE and EQ rows", rv, sol, dense)
}

// TestRevisedDetectsInfeasibleCut: an appended row no point satisfies ends
// Infeasible (through the cold fallback, which rules out drift), never as a
// feasible point.
func TestRevisedDetectsInfeasibleCut(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.addDense([]float64{1, 0}, LE, 3)
	p.addDense([]float64{0, 1}, LE, 4)
	rv := NewRevised(p, nil)
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}
	rv.p.addDense([]float64{1, 1}, LE, -1) // unsatisfiable for x, y >= 0
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	if sol.Feasible {
		t.Fatal("infeasible solution marked feasible")
	}
}

// negativeSlackRevised is a handle whose pivoting tolerance (0.5) is large
// enough that the ratio test skips the 0.3 entry of the row 0.3·x <= 0.1:
// raising x to 1 leaves that row's basic slack at −0.2, a violated row whose
// residual ‖b − B·x_B‖ is exact — only the certificate's x_B bound sees it.
func negativeSlackRevised(p *Problem) *Revised {
	rv := NewRevised(p, nil)
	rv.tol = 0.5
	return rv
}

// TestRevisedColdNeverReportsInfeasibleBasis: a cold solve whose optimal
// basis holds a basic value below zero past the certificate's bound fails
// with ErrNumerical and reports no Solution — never Optimal with a point
// that violates a row.
func TestRevisedColdNeverReportsInfeasibleBasis(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.addDense([]float64{1}, LE, 1)
	p.addDense([]float64{0.3}, LE, 0.1)
	sol, err := negativeSlackRevised(p).Solve()
	if !errors.Is(err, ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	if sol != nil {
		t.Fatalf("numerical failure reported a solution: %+v", sol)
	}
}

// TestRevisedWarmInfeasibleBasisCostsOneColdSolve: the same basis reached by
// a warm re-solve is a warm failure — the warm attempt is spent, one cold
// solve follows, and its ErrNumerical is the result.
func TestRevisedWarmInfeasibleBasisCostsOneColdSolve(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.addDense([]float64{1}, LE, 1)
	rv := negativeSlackRevised(p)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	assertRevisedOptimal(t, rv, sol)
	p.addDense([]float64{0.3}, LE, 0.1)
	sol, err = rv.Solve()
	if !errors.Is(err, ErrNumerical) || sol != nil {
		t.Fatalf("warm re-solve: sol = %+v, err = %v, want ErrNumerical", sol, err)
	}
	if st := rv.Stats(); st.WarmSolves != 1 || st.ColdSolves != 1 {
		t.Fatalf("stats = %+v, want 1 warm attempt and only the first cold solve", st)
	}
}

// TestRevisedWarmUnstablePivotCostsOneColdSolve: the near-degenerate-1e-9
// fixture needs a primal pivot still unstable on a fresh factorization. A
// cold solve commits it; a warm one does not — it fails and costs exactly
// one cold solve, which then reaches the optimum. The warm attempt starts
// from the slack basis of a zero-objective solve, so it meets that pivot.
func TestRevisedWarmUnstablePivotCostsOneColdSolve(t *testing.T) {
	p := nearDegenerateLP(8, 1e-9)
	obj := append([]float64(nil), p.objective...)
	p.SetObjective(make([]float64, len(obj)))
	rv := NewRevised(p, nil)
	if sol, err := rv.Solve(); err != nil || sol.Status != Optimal || sol.Iterations != 0 {
		t.Fatalf("zero objective: sol = %+v, err = %v", sol, err)
	}
	p.SetObjective(obj)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if rv.LastWarm() {
		t.Fatal("warm attempt committed an unstable pivot")
	}
	if st := rv.Stats(); st.WarmSolves != 1 || st.ColdSolves != 2 {
		t.Fatalf("stats = %+v, want 1 warm attempt and 2 cold solves", st)
	}
	dense, err := denseSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeOptimal(t, "near-degenerate-1e-9 after a warm failure", rv, sol, dense)
}

// TestRevisedPicksUpDirectProblemGrowth: rows added directly on the
// underlying Problem (not via the handle) are picked up by the next Solve —
// package steady grows its master this way.
func TestRevisedPicksUpDirectProblemGrowth(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.addDense([]float64{1}, LE, 10)
	rv := NewRevised(p, nil)
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}
	p.addDense([]float64{1}, LE, 4)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !rv.LastWarm() || sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-9 {
		t.Fatalf("direct growth ignored: warm=%v %+v", rv.LastWarm(), sol)
	}
	assertRevisedOptimal(t, rv, sol)
}

func TestRevisedNilProblem(t *testing.T) {
	if _, err := NewRevised(nil, nil).Solve(); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("nil problem: err = %v, want ErrBadProblem", err)
	}
}
