package steady

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/topology"
)

// sessionOpts forces full separation convergence so the session and the cold
// oracle agree to tight tolerance (the default gap-based exit may stop at
// different achievable lower bounds on degenerate platforms).
func sessionOpts() *Options { return &Options{GapTolerance: 1e-9} }

// checkAgainstColdOracle solves the platform's current state from scratch on
// the dense reference (SolveReference) and compares it with the session's
// solution.
func checkAgainstColdOracle(t *testing.T, p *platform.Platform, source int, got *Solution, label string) {
	t.Helper()
	oracle, err := SolveReference(p.Clone(), source, sessionOpts())
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	rel := math.Abs(got.Throughput-oracle.Throughput) / math.Max(oracle.Throughput, 1e-12)
	if rel > 1e-6 {
		t.Errorf("%s: session throughput %v vs cold oracle %v (rel %v)", label, got.Throughput, oracle.Throughput, rel)
	}
}

func TestSessionAcrossMutations(t *testing.T) {
	p, err := topology.Random(topology.DefaultRandomConfig(14, 0.25), topology.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p, 0, sessionOpts())
	sol, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "initial")

	apply := func(d platform.Delta) {
		t.Helper()
		if _, err := p.ApplyDelta(d); err != nil {
			t.Fatalf("apply %v: %v", d, err)
		}
	}

	// Tightening deltas: degrade two links, fail one. These must take the
	// warm path (master reused).
	apply(platform.Delta{Kind: platform.DeltaScaleLink, Link: 0, Factor: 3})
	apply(platform.Delta{Kind: platform.DeltaScaleLink, Link: 3, Factor: 1.5})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "after degrade")
	if s.Stats().WarmResolves != 1 {
		t.Errorf("degrade-only resolve did not take the warm path: %+v", s.Stats())
	}

	apply(platform.Delta{Kind: platform.DeltaLinkDown, Link: 1})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "after link-down")
	if sol.EdgeRate[1] != 0 {
		t.Errorf("dead link 1 has rate %v, want 0", sol.EdgeRate[1])
	}
	if s.Stats().WarmResolves != 2 {
		t.Errorf("link-down resolve did not take the warm path: %+v", s.Stats())
	}

	// Loosening deltas: speed-up and revival force a pool-seeded rebuild.
	apply(platform.Delta{Kind: platform.DeltaScaleLink, Link: 0, Factor: 0.25})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "after speed-up")
	apply(platform.Delta{Kind: platform.DeltaLinkUp, Link: 1})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "after link-up")

	// Node churn: crash a non-source node (rebuild with destination
	// filtering), then revive it.
	victim := -1
	for w := 1; w < p.NumNodes(); w++ {
		if _, err := p.ApplyDelta(platform.Delta{Kind: platform.DeltaNodeDown, Node: w}); err != nil {
			continue
		}
		if p.ValidateLive(0) == nil {
			victim = w
			break
		}
		if _, err := p.ApplyDelta(platform.Delta{Kind: platform.DeltaNodeUp, Node: w}); err != nil {
			t.Fatal(err)
		}
	}
	if victim < 0 {
		t.Fatal("no node can crash without disconnecting the platform")
	}
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "after node-down")
	apply(platform.Delta{Kind: platform.DeltaNodeUp, Node: victim})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstColdOracle(t, p, 0, sol, "after node-up")

	st := s.Stats()
	if st.Resolves != 7 || st.WarmResolves != 2 || st.Rebuilds != 5 {
		t.Errorf("stats = %+v, want 7 resolves, 2 warm, 5 rebuilds", st)
	}
	if st.PoolCuts == 0 {
		t.Error("session accumulated no pooled cuts")
	}
	if st.PoolReused == 0 {
		t.Error("rebuilds reused no pooled cuts")
	}
}

// TestSessionNoMutationIsCheap re-resolving without mutations must not
// rebuild the master and should cost few pivots.
func TestSessionNoMutationIsCheap(t *testing.T) {
	p, err := topology.Random(topology.DefaultRandomConfig(12, 0.3), topology.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p, 0, sessionOpts())
	first, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.Throughput-second.Throughput) > 1e-9 {
		t.Errorf("idempotent resolve drifted: %v vs %v", first.Throughput, second.Throughput)
	}
	if s.Stats().Rebuilds != 1 {
		t.Errorf("no-op resolve rebuilt the master: %+v", s.Stats())
	}
	if second.Rounds != 1 {
		t.Errorf("no-op resolve took %d rounds, want 1", second.Rounds)
	}
}
