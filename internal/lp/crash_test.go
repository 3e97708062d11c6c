package lp

import (
	"math"
	"math/rand"
	"testing"
)

// optimalCrash returns the optimal basis of a cold-solved LE-only problem as
// crash pairs: its basic structural columns, each paired with a row whose
// slack is nonbasic (the basis is a set, so any such pairing names it).
func optimalCrash(rv *Revised) []CrashPair {
	var rows, cols []int
	for j := 0; j < rv.nStruct; j++ {
		if rv.posOf[j] >= 0 {
			cols = append(cols, j)
		}
	}
	for l, r := range rv.logRow {
		if rv.posOf[rv.nStruct+l] < 0 {
			rows = append(rows, int(r))
		}
	}
	pairs := make([]CrashPair, len(cols))
	for k := range cols {
		pairs[k] = CrashPair{Row: rows[k], Col: cols[k]}
	}
	return pairs
}

// randomCrash draws 1 to min(rows, vars) pairs of distinct rows and distinct
// columns: some such bases are feasible, most are not.
func randomCrash(rng *rand.Rand, p *Problem) []CrashPair {
	rows, cols := rng.Perm(len(p.constraints)), rng.Perm(p.numVars)
	pairs := make([]CrashPair, 1+rng.Intn(min(len(rows), len(cols))))
	for k := range pairs {
		pairs[k] = CrashPair{Row: rows[k], Col: cols[k]}
	}
	return pairs
}

// crashSolve solves p cold on a fresh handle seeded with pairs.
func crashSolve(t *testing.T, p *Problem, pairs []CrashPair) (*Revised, *Solution) {
	t.Helper()
	rv := NewRevised(p, nil)
	rv.Crash(pairs)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatalf("crash-started solve: %v", err)
	}
	if st := rv.Stats(); st.Crashes != 1 || st.ColdSolves != 1 {
		t.Fatalf("stats %+v: want one cold solve, seeded by the crash", st)
	}
	return rv, sol
}

// TestCrashMatchesSlackStartOnRandomLPs: on random master-shaped and mixed
// LPs, a solve started from a crash basis — the slack solve's own optimum,
// half of it, or random pairs — reaches the slack-started verdict, and an
// optimum within 1e-9 whose duals pass the KKT check. Both the accepted and
// the rejected path must be exercised.
func TestCrashMatchesSlackStartOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	accepted, rejected := 0, 0
	for iter := 0; iter < 300; iter++ {
		var p *Problem
		if iter%2 == 0 {
			p = randomMasterLP(rng, 3+rng.Intn(10), rng.Intn(12))
		} else {
			p = randomBoundedLP(rng)
		}
		slack := NewRevised(p, nil)
		want, err := slack.Solve()
		if err != nil {
			t.Fatalf("iter %d: slack-started solve: %v", iter, err)
		}
		crashes := [][]CrashPair{randomCrash(rng, p)}
		if iter%2 == 0 && want.Status == Optimal {
			full := optimalCrash(slack)
			crashes = append(crashes, full, full[:len(full)/2])
		}
		for k, pairs := range crashes {
			if len(pairs) == 0 {
				continue // the optimum has no basic structural: nothing to seed
			}
			rv, got := crashSolve(t, p, pairs)
			if rv.Stats().CrashRejects == 0 {
				accepted++
			} else {
				rejected++
			}
			if got.Status != want.Status {
				t.Fatalf("iter %d crash %d: status %v, slack start %v", iter, k, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if d := math.Abs(got.Objective - want.Objective); d > 1e-9*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("iter %d crash %d: objective %v, slack start %v", iter, k, got.Objective, want.Objective)
			}
			assertOptimal(t, p, got)
		}
	}
	t.Logf("%d crash bases accepted, %d rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d crash bases accepted, %d rejected: both paths must run", accepted, rejected)
	}
}

// TestCrashOptimalBasisTakesNoPivots: seeded with the optimal basis of a
// slack-started solve, a fresh handle reports Optimal after 0 pivots, with
// duals that pass the KKT check.
func TestCrashOptimalBasisTakesNoPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		p := randomMasterLP(rng, 4+rng.Intn(12), rng.Intn(20))
		slack := NewRevised(p, nil)
		want, err := slack.Solve()
		if err != nil || want.Status != Optimal {
			t.Fatalf("iter %d: slack-started solve: %v %v", iter, want, err)
		}
		rv, got := crashSolve(t, p, optimalCrash(slack))
		if rv.Stats().CrashRejects != 0 || got.Status != Optimal || got.Iterations != 0 {
			t.Fatalf("iter %d: optimal crash basis: status %v after %d pivots, stats %+v", iter, got.Status, got.Iterations, rv.Stats())
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, want.Objective) {
			t.Fatalf("iter %d: objective %v, slack start %v", iter, got.Objective, want.Objective)
		}
		assertOptimal(t, p, got)
	}
}

// TestCrashRejectsBadBases: a crash basis that is singular, primal
// infeasible or malformed is counted in CrashRejects, and the solve starts
// from the slack basis: same pivots, same optimum. The seed is spent either
// way.
func TestCrashRejectsBadBases(t *testing.T) {
	// maximize x0 + x1 + x2 subject to
	//   row 0: x0 + x1 + 2·x2 <= 2
	//   row 1: x0 + x1        <= 3
	//   row 2:           x2   <= 1
	// x0 and x1 share a column, so any basis holding both is singular;
	// x0 basic in row 1 alone sets x0 = 3 and row 0's slack to −1.
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetObjectiveCoeff(j, 1)
	}
	p.addDense([]float64{1, 1, 2}, LE, 2)
	p.addDense([]float64{1, 1, 0}, LE, 3)
	p.addDense([]float64{0, 0, 1}, LE, 1)
	want := solveOK(t, p)
	for _, c := range []struct {
		name  string
		pairs []CrashPair
	}{
		{"singular", []CrashPair{{0, 0}, {1, 1}}},
		{"infeasible", []CrashPair{{1, 0}}},
		{"row out of range", []CrashPair{{3, 0}}},
		{"column out of range", []CrashPair{{0, 3}}},
		{"repeated row", []CrashPair{{0, 0}, {0, 2}}},
		{"repeated column", []CrashPair{{0, 2}, {2, 2}}},
	} {
		rv, got := crashSolve(t, p, c.pairs)
		if rv.Stats().CrashRejects != 1 {
			t.Fatalf("%s: crash basis accepted (stats %+v)", c.name, rv.Stats())
		}
		if got.Status != Optimal || got.Iterations != want.Iterations || got.Objective != want.Objective {
			t.Fatalf("%s: %v after %d pivots at %v; the slack start reaches %v after %d at %v",
				c.name, got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
		}
		assertOptimal(t, p, got)
		// The seed is spent: a fallback re-solve starts from the slack basis.
		rv.invalidate()
		if _, err := rv.Solve(); err != nil {
			t.Fatal(err)
		}
		if st := rv.Stats(); st.Crashes != 1 || st.CrashRejects != 1 {
			t.Fatalf("%s: a second cold solve reused the seed (stats %+v)", c.name, st)
		}
	}
}

// TestCrashStartedWarmResolveAllocs: a handle whose first solve started from
// a crash basis keeps the warm path's allocation bound: warm re-solves after
// an objective change allocate only their Solution.
func TestCrashStartedWarmResolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomMasterLP(rng, 24, 60)
	slack := NewRevised(p, nil)
	if _, err := slack.Solve(); err != nil {
		t.Fatal(err)
	}
	rv, _ := crashSolve(t, p, optimalCrash(slack))
	if rv.Stats().CrashRejects != 0 {
		t.Fatalf("fixture crash basis rejected (stats %+v)", rv.Stats())
	}
	flip := false
	var last *Solution
	allocs := testing.AllocsPerRun(50, func() {
		flip = !flip
		c := 2.0
		if flip {
			c = 0.25
		}
		for j := 0; j < 12; j++ {
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
	if allocs > 4 {
		t.Fatalf("warm re-solve allocates %v objects per run, want <= 4", allocs)
	}
}
