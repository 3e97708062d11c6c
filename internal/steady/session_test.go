package steady

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/topology"
)

// checkCertified certifies the session's solution against the
// platform's current state: its throughput must lie in the interval Certify
// proves from its rates and port prices.
func checkCertified(t *testing.T, p *platform.Platform, source int, got *Solution, label string) {
	t.Helper()
	if _, _, err := Certify(p, source, got); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

func TestSessionAcrossMutations(t *testing.T) {
	p, err := topology.Random(topology.DefaultRandomConfig(14, 0.25), topology.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p, 0, nil)
	sol, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkCertified(t, p, 0, sol, "initial")

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
	checkCertified(t, p, 0, sol, "after degrade")
	if s.Stats().WarmResolves != 1 {
		t.Errorf("degrade-only resolve did not take the warm path: %+v", s.Stats())
	}

	apply(platform.Delta{Kind: platform.DeltaLinkDown, Link: 1})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkCertified(t, p, 0, sol, "after link-down")
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
	checkCertified(t, p, 0, sol, "after speed-up")
	apply(platform.Delta{Kind: platform.DeltaLinkUp, Link: 1})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkCertified(t, p, 0, sol, "after link-up")

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
	checkCertified(t, p, 0, sol, "after node-down")
	apply(platform.Delta{Kind: platform.DeltaNodeUp, Node: victim})
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkCertified(t, p, 0, sol, "after node-up")

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
	s := NewSession(p, 0, nil)
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
