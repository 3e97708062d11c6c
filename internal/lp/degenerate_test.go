package lp

import (
	"math"
	"math/rand"
	"testing"
)

// assertUnperturbed fails if the handle still prices any column at a shifted
// cost: outside a dual phase colCost must be the problem's own objective on
// structural columns and zero on logical ones, and c_B must agree with it.
func assertUnperturbed(t *testing.T, rv *Revised) {
	t.Helper()
	if rv.shifted {
		t.Fatal("the dual phase's cost perturbation is still switched on after the solve")
	}
	for j := 0; j < rv.numCols(); j++ {
		want := 0.0
		if j < rv.nStruct {
			want = rv.p.objective[j]
		}
		if got := rv.colCost(j); got != want {
			t.Fatalf("column %d costs %v after the solve, the problem says %v", j, got, want)
		}
	}
	for pos, col := range rv.basis {
		if rv.cB[pos] != rv.colCost(col) {
			t.Fatalf("basic cost %v of column %d (position %d) is not its true cost %v", rv.cB[pos], col, pos, rv.colCost(col))
		}
	}
}

// cutMaster is a miniature of package steady's cutting-plane master, built to
// be as dual degenerate as the real ones and then some: zero-cost "link"
// columns, one unit-cost "throughput" column t, occupation rows Σ w_j·x_j <= 1
// over groups of links with weights 1 or 2 (tied primal ratios), and cut rows
// t − Σ_{j∈S} x_j <= 0 with an exact zero right-hand side (no RHS
// perturbation). Links come in pairs that sit in the same group with the same
// weight and in the same cuts — duplicate columns, whose reduced costs are
// equal whatever the basis. Every link outside the basis prices to a reduced
// cost of exactly zero, so an unperturbed dual ratio test ties at zero.
type cutMaster struct {
	nLinks  int         // columns 2q and 2q+1 are duplicates of each other
	rows    [][]float64 // dense rows over nLinks+1 columns, t last
	rhs     []float64
	batches [][2]int
}

func newCutMaster(rng *rand.Rand, nPairs, nBatches int) *cutMaster {
	c := &cutMaster{nLinks: 2 * nPairs}
	n := c.nLinks + 1
	// Occupation rows: consecutive pairs share a group.
	for q := 0; q < nPairs; {
		row := make([]float64, n)
		for size := 1 + rng.Intn(3); size > 0 && q < nPairs; size, q = size-1, q+1 {
			w := float64(1 + rng.Intn(2))
			row[2*q], row[2*q+1] = w, w
		}
		c.rows, c.rhs = append(c.rows, row), append(c.rhs, 1)
	}
	cut := func() {
		row := make([]float64, n)
		row[c.nLinks] = 1
		for picked := false; !picked; {
			for q := 0; q < nPairs; q++ {
				if rng.Intn(3) == 0 {
					row[2*q], row[2*q+1] = -1, -1
					picked = true
				}
			}
		}
		c.rows, c.rhs = append(c.rows, row), append(c.rhs, 0)
	}
	cut() // bounds t, so the cold solve is not unbounded
	c.batches = append(c.batches, [2]int{0, len(c.rows)})
	for b := 0; b < nBatches; b++ {
		from := len(c.rows)
		for r := 1 + rng.Intn(3); r > 0; r-- {
			cut()
		}
		c.batches = append(c.batches, [2]int{from, len(c.rows)})
	}
	return c
}

// TestRevisedDegenerateWarmIsExact is the exactness and no-fallback tier of
// the dual phase's cost perturbation, on masters where it decides every
// pivot. After every warm append batch: the objective is the one a cold dense
// solve of the same problem finds, within 1e-9·max(1,|obj|) — an optimum, not
// an approximation of one; the duals are dual feasible and satisfy strong
// duality and complementary slackness against the unperturbed costs
// (checkDuals, assertOptimal); no perturbation survives the solve; and a
// second handle fed the same sequence takes the same number of pivots to a
// bit-identical point. Over a whole
// sequence the handle solves cold exactly once: no warm attempt falls back.
func TestRevisedDegenerateWarmIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	warmSolves, warmPivots := 0, 0
	for trial := 0; trial < 60; trial++ {
		c := newCutMaster(rng, 4+rng.Intn(20), 2+rng.Intn(6))
		n := c.nLinks + 1
		obj := make([]float64, n)
		obj[c.nLinks] = 1
		rels := make([]Relation, len(c.rows)) // all LE
		var handles [2]*Revised
		for h := range handles {
			p := NewProblem(n)
			p.SetObjective(obj)
			handles[h] = NewRevised(p, nil)
		}
		for bi, batch := range c.batches {
			var sols [2]*Solution
			for h, rv := range handles {
				for i := batch[0]; i < batch[1]; i++ {
					rv.p.addDense(c.rows[i], LE, c.rhs[i])
				}
				sol, err := rv.Solve()
				if err != nil || sol.Status != Optimal {
					t.Fatalf("trial %d batch %d handle %d: %+v, %v", trial, bi, h, sol, err)
				}
				assertUnperturbed(t, rv)
				assertRevisedOptimal(t, rv, sol)
				sols[h] = sol
			}
			if sols[0].Iterations != sols[1].Iterations {
				t.Fatalf("trial %d batch %d: the same sequence took %d pivots, then %d", trial, bi, sols[0].Iterations, sols[1].Iterations)
			}
			for j := range sols[0].X {
				if math.Float64bits(sols[0].X[j]) != math.Float64bits(sols[1].X[j]) {
					t.Fatalf("trial %d batch %d: x[%d] = %v, then %v: not bit-identical", trial, bi, j, sols[0].X[j], sols[1].X[j])
				}
			}
			sol, rv := sols[0], handles[0]
			rows := batch[1]
			cold := NewProblem(n)
			cold.SetObjective(obj)
			for i := 0; i < rows; i++ {
				cold.addDense(c.rows[i], LE, c.rhs[i])
			}
			ref := denseOK(t, cold)
			if ref.Status != Optimal || math.Abs(ref.Objective-sol.Objective) > 1e-9*math.Max(1, math.Abs(ref.Objective)) {
				t.Fatalf("trial %d batch %d: warm objective %v, cold dense %v (%v)", trial, bi, sol.Objective, ref.Objective, ref.Status)
			}
			withDuals := *sol
			withDuals.Dual = rv.Duals()
			checkDuals(t, &withDuals, obj, c.rows[:rows], rels[:rows], c.rhs[:rows])
			for i, y := range withDuals.Dual {
				if y < -1e-9 {
					t.Errorf("trial %d batch %d: LE row %d has dual %v", trial, bi, i, y)
				}
			}
			if bi > 0 {
				if !rv.LastWarm() {
					t.Fatalf("trial %d batch %d: the warm attempt fell back to a cold solve", trial, bi)
				}
				warmSolves++
				warmPivots += sol.Iterations
			}
		}
		if st := handles[0].Stats(); st.ColdSolves != 1 {
			t.Fatalf("trial %d: %d cold solves over %d batches, want the first one only", trial, st.ColdSolves, len(c.batches))
		}
	}
	// Vacuous unless the dual phase actually pivoted on these masters.
	if warmSolves < 200 || warmPivots < 2*warmSolves {
		t.Fatalf("coverage too thin: %d warm solves, %d warm pivots", warmSolves, warmPivots)
	}
}

// TestRevisedWarmFailureCostsOneColdSolve pins what a failed warm attempt
// costs now that the handle has no warm-disable latch: exactly one cold
// re-solve, and the next solve warm-starts again — however many attempts have
// failed before. (With the dual phase perturbed, no registry or benchmark
// master makes Revised fail a warm attempt at all, so the failure is forced
// here by handing warmSolve a singular basis.)
func TestRevisedWarmFailureCostsOneColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomMasterLP(rng, 10, 8)
	rv := NewRevised(p, nil)
	if sol, err := rv.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("first solve: %+v, %v", sol, err)
	}
	addRow := func() {
		coeffs := make([]float64, 10)
		for j := range coeffs {
			coeffs[j] = rng.Float64()
		}
		rv.p.addDense(coeffs, LE, rng.Float64()+0.2)
	}
	for round := 0; round < 4; round++ {
		// The same logical column basic in two positions: the warm attempt's
		// refactorization finds the basis singular and gives up.
		rv.basis[1] = rv.basis[0]
		addRow()
		before := rv.Stats()
		sol, err := rv.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("round %d: solve over a corrupted warm basis: %+v, %v", round, sol, err)
		}
		assertRevisedOptimal(t, rv, sol)
		after := rv.Stats()
		if rv.LastWarm() || after.WarmSolves != before.WarmSolves+1 || after.ColdSolves != before.ColdSolves+1 {
			t.Fatalf("round %d: a failed warm attempt must cost one cold solve: before %+v, after %+v", round, before, after)
		}
		assertAgree(t, "cold fallback", sol, denseOK(t, p))

		addRow()
		sol, err = rv.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("round %d: solve after the fallback: %+v, %v", round, sol, err)
		}
		if !rv.LastWarm() {
			t.Fatalf("round %d: after %d failed warm attempts the handle stopped warm-starting", round, round+1)
		}
		assertRevisedOptimal(t, rv, sol)
	}
}

// TestRevisedNeverOptimalUnderATwoPivotBudget a handle that cannot finish
// inside its iteration budget keeps answering, through whichever path, and
// never passes off a stale warm optimum as the verdict.
func TestRevisedNeverOptimalUnderATwoPivotBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomMasterLP(rng, 10, 8)
	rv := NewRevised(p, &Options{MaxIterations: 2})
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage < 4; stage++ {
		coeffs := make([]float64, 10)
		coeffs[stage] = 1
		rv.p.addDense(coeffs, LE, 0.1)
		sol, err := rv.Solve()
		if err != nil {
			t.Fatalf("stage %d: %v", stage, err)
		}
		if sol.Status == Optimal {
			t.Fatalf("stage %d: optimal verdict under a 2-pivot budget", stage)
		}
	}
}
