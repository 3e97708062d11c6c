package steady

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/topology"
)

// starPlatform builds a star with node 0 at the center and the given
// outgoing slice times towards each leaf (plus symmetric return links).
func starPlatform(outTimes []float64) *platform.Platform {
	p := platform.New(len(outTimes) + 1)
	for i, t := range outTimes {
		p.MustAddLink(0, i+1, model.Linear(t))
		p.MustAddLink(i+1, 0, model.Linear(t))
	}
	return p
}

// chainPlatform builds a directed chain 0 -> 1 -> ... with the given times.
func chainPlatform(times []float64) *platform.Platform {
	p := platform.New(len(times) + 1)
	for i, t := range times {
		p.MustAddLink(i, i+1, model.Linear(t))
	}
	return p
}

// completeUnit builds a complete directed graph with unit slice times.
func completeUnit(n int) *platform.Platform {
	p := platform.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				p.MustAddLink(u, v, model.Linear(1))
			}
		}
	}
	return p
}

func TestStarThroughput(t *testing.T) {
	// On a star the source must serialize all sends: TP = 1 / sum(T_i).
	outTimes := []float64{1, 2, 3}
	p := starPlatform(outTimes)
	sol, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 6.0
	if math.Abs(sol.Throughput-want) > 1e-6 {
		t.Fatalf("throughput = %v, want %v", sol.Throughput, want)
	}
}

func TestChainThroughput(t *testing.T) {
	// On a chain the bottleneck is the slowest link: TP = 1 / max(T_i).
	p := chainPlatform([]float64{1, 4, 2})
	sol, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Throughput-0.25) > 1e-6 {
		t.Fatalf("throughput = %v, want 0.25", sol.Throughput)
	}
}

func TestCompleteGraphK3(t *testing.T) {
	// On K3 with unit times the optimal MTP throughput is 1 (each
	// destination receives half the slices directly and half relayed).
	p := completeUnit(3)
	sol, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Throughput-1) > 1e-6 {
		t.Fatalf("throughput = %v, want 1", sol.Throughput)
	}
}

func TestSingleNodePlatform(t *testing.T) {
	p := platform.New(1)
	sol, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sol.Throughput, 1) {
		t.Fatalf("single-node throughput = %v, want +Inf", sol.Throughput)
	}
	sold, err := SolveDirect(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sold.Throughput, 1) {
		t.Fatal("direct solver should also return +Inf")
	}
}

func TestUnreachablePlatformRejected(t *testing.T) {
	p := platform.New(3)
	p.MustAddLink(0, 1, model.Linear(1))
	if _, err := Solve(p, 0, nil); err == nil {
		t.Fatal("unreachable platform accepted by Solve")
	}
	if _, err := SolveDirect(p, 0, nil); err == nil {
		t.Fatal("unreachable platform accepted by SolveDirect")
	}
}

func TestDirectMatchesKnownValues(t *testing.T) {
	cases := []struct {
		name string
		p    *platform.Platform
		want float64
	}{
		{"star", starPlatform([]float64{1, 2, 3}), 1.0 / 6.0},
		{"chain", chainPlatform([]float64{1, 4, 2}), 0.25},
		{"k3", completeUnit(3), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := SolveDirect(tc.p, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sol.Throughput-tc.want) > 1e-6 {
				t.Fatalf("throughput = %v, want %v", sol.Throughput, tc.want)
			}
		})
	}
}

func TestSolutionFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		p, err := topology.Random(topology.DefaultRandomConfig(12, 0.2), rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Solve(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Throughput <= 0 {
			t.Fatalf("non-positive throughput %v", sol.Throughput)
		}
		if _, _, err := Certify(p, 0, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCuttingPlaneMatchesDirectOnRandomPlatforms(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(4) // 4..7 nodes keeps the direct LP small
		p, err := topology.Random(topology.DefaultRandomConfig(n, 0.4), rng)
		if err != nil {
			t.Fatal(err)
		}
		source := rng.Intn(n)
		got, err := Solve(p, source, nil)
		if err != nil {
			t.Fatalf("trial %d: cutting plane: %v", trial, err)
		}
		want, err := SolveDirect(p, source, nil)
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		rel := math.Abs(got.Throughput-want.Throughput) / math.Max(want.Throughput, 1e-12)
		if rel > 1e-4 {
			t.Fatalf("trial %d (n=%d): cutting plane %v vs direct %v", trial, n, got.Throughput, want.Throughput)
		}
	}
}

// TestWarmStartMatchesColdStart is the core test of the warm-started master:
// on random and hierarchical platforms, Solve's throughput must lie in the
// interval Certify proves, and its pivot accounting must add up, as must
// that of the cold-every-round baseline.
func TestWarmStartMatchesColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	platforms := make([]*platform.Platform, 0, 8)
	for trial := 0; trial < 6; trial++ {
		p, err := topology.Random(topology.DefaultRandomConfig(8+trial*3, 0.25), rng)
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, p)
	}
	tiers, err := topology.Tiers(topology.Tiers30(), rng)
	if err != nil {
		t.Fatal(err)
	}
	platforms = append(platforms, tiers)

	for i, p := range platforms {
		warm, err := Solve(p, 0, nil)
		if err != nil {
			t.Fatalf("platform %d: warm: %v", i, err)
		}
		if _, _, err := Certify(p, 0, warm); err != nil {
			t.Errorf("platform %d: %v", i, err)
		}
		cold, err := coldEveryRound(p, 0, nil)
		if err != nil {
			t.Fatalf("platform %d: cold: %v", i, err)
		}
		// Pivot accounting: the split must add up, and the cold baseline
		// must not report warm pivots.
		if warm.WarmPivots+warm.ColdPivots != warm.LPIterations {
			t.Errorf("platform %d: warm pivots %d + cold pivots %d != total %d",
				i, warm.WarmPivots, warm.ColdPivots, warm.LPIterations)
		}
		if cold.WarmPivots != 0 || cold.ColdPivots != cold.LPIterations || cold.ColdSolves != cold.Rounds {
			t.Errorf("platform %d: cold-start accounting %+v inconsistent", i, cold)
		}
		if warm.ColdSolves < 1 {
			t.Errorf("platform %d: warm path reports %d cold solves, want >= 1 (the first round)", i, warm.ColdSolves)
		}
	}
}

// TestWarmStartReducesPivots checks the point of the exercise: on a
// hierarchical platform accumulating dozens of cuts, the warm-started master
// needs at most half the simplex pivots of re-solving every round's master
// cold.
func TestWarmStartReducesPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, err := topology.Tiers(topology.Tiers65(), rng)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Certify(p, 0, warm); err != nil {
		t.Error(err)
	}
	cold, err := coldEveryRound(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rounds > 1 && warm.LPIterations*2 > cold.LPIterations {
		t.Errorf("warm start did not halve the pivots: warm %d (rounds %d) vs cold %d (rounds %d)",
			warm.LPIterations, warm.Rounds, cold.LPIterations, cold.Rounds)
	}
}

// TestIterationLimitedMasterSurfacesAsError is the regression test for the
// silent zero-throughput bug: a master LP that hits its iteration limit
// before producing a certified solution must surface as ErrLPFailed, never
// as a nil-error Solution with throughput 0.
func TestIterationLimitedMasterSurfacesAsError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, err := topology.Random(topology.DefaultRandomConfig(20, 0.3), rng)
	if err != nil {
		t.Fatal(err)
	}
	// The budgets below must bite: the first master, crash-started from its
	// spanning tree, needs more pivots than the largest of them (34 today).
	full, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.ColdSolves != 1 || full.ColdPivots <= 10 {
		t.Fatalf("the first master took %d pivots over %d cold solves; the fixture needs one solve of more than 10", full.ColdPivots, full.ColdSolves)
	}
	sol, err := Solve(p, 0, &Options{LP: &lp.Options{MaxIterations: 1}})
	if err == nil {
		t.Fatalf("1-pivot budget returned nil error (throughput %v)", sol.Throughput)
	}
	if !errors.Is(err, ErrLPFailed) {
		t.Fatalf("error %v, want ErrLPFailed", err)
	}
	// Budgets large enough for a feasible phase-2 point but too small to
	// prove optimality must also never terminate silently through the
	// no-violated-cuts exit: an iteration-limited master value is not an
	// upper bound, so separating nothing at it certifies nothing.
	for _, budget := range []int{5, 10} {
		sol, err := Solve(p, 0, &Options{LP: &lp.Options{MaxIterations: budget}})
		if err == nil {
			t.Fatalf("budget %d: uncertified master terminated with nil error (throughput %v)", budget, sol.Throughput)
		}
		if !errors.Is(err, ErrLPFailed) && !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("budget %d: error %v, want ErrLPFailed or ErrNoConvergence", budget, err)
		}
	}
}

// TestUpperBoundDominatesThroughput: the final master value is an upper
// bound on the reported (achievable) throughput.
func TestUpperBoundDominatesThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		p, err := topology.Random(topology.DefaultRandomConfig(10+trial*4, 0.2), rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Solve(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Throughput > sol.UpperBound+1e-9*math.Max(1, sol.UpperBound) {
			t.Errorf("trial %d: throughput %v exceeds master upper bound %v", trial, sol.Throughput, sol.UpperBound)
		}
	}
}

func TestTiersPlatformSolvable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := topology.Tiers(topology.Tiers30(), rng)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Throughput <= 0 {
		t.Fatalf("throughput = %v", sol.Throughput)
	}
	if _, _, err := Certify(p, 0, sol); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputUpperBound(t *testing.T) {
	// The optimal throughput can never exceed the inverse of the fastest
	// incoming link of the slowest-to-feed destination (a destination cannot
	// receive faster than its total incoming capacity allows), nor the
	// source's total outgoing capacity divided by ... (weaker). Check the
	// per-destination in-cut bound.
	rng := rand.New(rand.NewSource(77))
	p, err := topology.Random(topology.DefaultRandomConfig(10, 0.15), rng)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < p.NumNodes(); w++ {
		if w == 0 {
			continue
		}
		// In-cut bound with occupancy: sum over in-links of rate is at most
		// 1 / min_t since sum(rate*T) <= 1 -> sum(rate) <= 1/min T.
		minT := math.Inf(1)
		for _, id := range p.InLinkIDs(w) {
			if tt := p.SliceTime(id); tt < minT {
				minT = tt
			}
		}
		if sol.Throughput > 1/minT+1e-6 {
			t.Fatalf("throughput %v exceeds in-cut bound %v of node %d", sol.Throughput, 1/minT, w)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	for _, c := range []struct {
		name          string
		opts          *Options
		rounds, pivot int
	}{
		{"nil", nil, 200, 30000},
		{"zero", &Options{}, 200, 30000},
		// A zero budget means the solver's budget, not lp's 50·(rows+cols).
		{"zero LP budget", &Options{LP: &lp.Options{}}, 200, 30000},
		{"LP budget", &Options{LP: &lp.Options{MaxIterations: 7}}, 200, 7},
		{"round limit", &Options{roundLimit: 3}, 3, 30000},
	} {
		if got := c.opts.maxRounds(); got != c.rounds {
			t.Errorf("%s: maxRounds = %d, want %d", c.name, got, c.rounds)
		}
		if got := c.opts.lpOptions().MaxIterations; got != c.pivot {
			t.Errorf("%s: pivot budget = %d, want %d", c.name, got, c.pivot)
		}
	}
}

// TestNoConvergenceWithTinyRoundLimit: a platform whose default solve needs
// more than one round ends ErrNoConvergence under a one-round limit, with
// the round it ran reported.
func TestNoConvergenceWithTinyRoundLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := topology.Random(topology.DefaultRandomConfig(12, 0.3), rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds < 2 {
		t.Fatalf("the default solve took %d round(s); the fixture needs more than one", full.Rounds)
	}
	sol, err := Solve(p, 0, &Options{roundLimit: 1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if sol == nil || sol.Rounds != 1 {
		t.Fatalf("solution %+v, want the one round it ran", sol)
	}
}

func TestCutKey(t *testing.T) {
	key := func(links ...int) string { return string(packCut(nil, links)) }
	if key(1, 2, 300) != key(1, 2, 300) {
		t.Fatal("the same cut should have the same key")
	}
	// Distinct link sets, including ones whose encodings could collide if
	// the signature were not self-delimiting.
	cuts := [][]int{{1, 2}, {1, 3}, {1, 2, 3}, {3}, {0, 3}, {128}, {0, 128}, {1, 127}, {300}, {44, 256}}
	seen := map[string][]int{}
	for _, c := range cuts {
		k := key(c...)
		if other, dup := seen[k]; dup {
			t.Fatalf("cuts %v and %v share a key", c, other)
		}
		seen[k] = c
	}
}

func TestPackSideRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 16, 21} {
		side := make([]bool, n)
		for u := range side {
			side[u] = u%3 == 0 || u == n-1
		}
		packed := packSide(nil, side)
		if len(packed) != (n+7)/8 {
			t.Fatalf("n=%d: %d bytes, want %d", n, len(packed), (n+7)/8)
		}
		got := make([]bool, n)
		for u := range got {
			got[u] = !side[u] // stale content unpackSide must overwrite
		}
		unpackSide(string(packed), got)
		for u := range side {
			if got[u] != side[u] {
				t.Fatalf("n=%d: node %d unpacked as %v", n, u, got[u])
			}
		}
	}
}

// scaleSolution scales a solution's rates and throughput alike: still
// feasible, but no longer optimal.
func scaleSolution(s *Solution, f float64) {
	for id := range s.EdgeRate {
		s.EdgeRate[id] *= f
	}
	s.Throughput *= f
}

// TestCertify feeds Certify the optimum of a two-leaf star (slice times 1
// and 2, optimum 1/3 with rates 1/3 each, the source's send port the only
// priced one) and mutations of it. Each mutation is a way a solver can go
// wrong by more than the 1e-6 bar, and each must be rejected, not certified.
func TestCertify(t *testing.T) {
	p := starPlatform([]float64{1, 2}) // links: 0->1, 1->0, 0->2, 2->0
	opt, err := Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper, err := Certify(p, 0, opt)
	if err != nil {
		t.Fatalf("optimum: %v", err)
	}
	if third := 1.0 / 3; math.Abs(lower-third) > 1e-9 || math.Abs(upper-third) > 1e-9 {
		t.Fatalf("optimum certified in [%v, %v], want 1/3", lower, upper)
	}
	down := p.Clone()
	if _, err := down.ApplyDelta(platform.Delta{Kind: platform.DeltaLinkDown, Link: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      *platform.Platform
		mutate func(*Solution)
		ok     bool
	}{
		{"optimum", p, func(*Solution) {}, true},
		{"throughput within tolerance", p, func(s *Solution) { s.Throughput *= 1 + 5e-7 }, true},
		{"throughput x(1+2e-6)", p, func(s *Solution) { s.Throughput *= 1 + 2e-6 }, false},
		{"rate on the tightest min cut x(1-1e-5)", p, func(s *Solution) { s.EdgeRate[2] *= 1 - 1e-5 }, false},
		{"rate on a dead link", down, func(s *Solution) { s.EdgeRate[1] = 1e-3 }, false},
		{"port loaded to 1+2e-6", p, func(s *Solution) {
			for id := range s.EdgeRate {
				s.EdgeRate[id] *= 1 + 2e-6
			}
		}, false},
		{"negative rate", p, func(s *Solution) { s.EdgeRate[1] = -3 }, false},
		{"rates and throughput x0.5", p, func(s *Solution) { scaleSolution(s, 0.5) }, false},
		{"rates and throughput x(1-2e-6)", p, func(s *Solution) { scaleSolution(s, 1-2e-6) }, false},
		{"all-zero port prices", p, func(s *Solution) { s.PortDual = make([]float64, len(s.PortDual)) }, false},
		{"no port prices", p, func(s *Solution) { s.PortDual = nil }, false},
	} {
		sol := *opt
		sol.EdgeRate = append([]float64(nil), opt.EdgeRate...)
		sol.PortDual = append([]float64(nil), opt.PortDual...)
		tc.mutate(&sol)
		lower, upper, err := Certify(tc.p, 0, &sol)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Certify = [%v, %v], %v; want ok=%v", tc.name, lower, upper, err, tc.ok)
		}
	}
}
