package scenarios

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dynamic"
)

// smallestSize returns the smallest default size of a scenario.
func smallestSize(s Scenario) int {
	size := s.DefaultSizes[0]
	for _, n := range s.DefaultSizes {
		if n < size {
			size = n
		}
	}
	return size
}

// TestChurnTraceRegistryContract every family must produce a deterministic
// trace: same (size, seed) -> byte-identical timeline, and the timeline
// must keep the platform broadcastable.
func TestChurnTraceRegistryContract(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			size := smallestSize(s)
			p1, tr1, err := ChurnTrace(s, size, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			_, tr2, err := ChurnTrace(s, size, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			j1, _ := json.Marshal(tr1)
			j2, _ := json.Marshal(tr2)
			if string(j1) != string(j2) {
				t.Fatal("same (size, seed) produced different traces")
			}
			if len(tr1.Events) != s.EffectiveTraceEvents() {
				t.Fatalf("trace has %d events, want %d", len(tr1.Events), s.EffectiveTraceEvents())
			}
			if tr1.Profile != s.EffectiveChurnProfile() {
				t.Fatalf("trace profile %q, want %q", tr1.Profile, s.EffectiveChurnProfile())
			}
			shadow := p1.Clone()
			for i, ev := range tr1.Events {
				if _, err := shadow.ApplyDelta(ev.Delta); err != nil {
					t.Fatalf("event %d (%v): %v", i, ev.Delta, err)
				}
				if err := shadow.ValidateLive(0); err != nil {
					t.Fatalf("event %d (%v) broke broadcastability: %v", i, ev.Delta, err)
				}
			}
		})
	}
}

// TestChurnWarmSessionMatchesColdSolve is the churn differential test of
// the warm steady-session: on every registry family, under a 50-event
// trace, the incrementally re-solved optimum must match a per-event cold
// solve within 1e-6 relative.
func TestChurnWarmSessionMatchesColdSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("differential churn sweep is not short")
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			size := smallestSize(s)
			p, err := s.Generate(size, 7)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := dynamic.ProfileByName(s.EffectiveChurnProfile())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := dynamic.GenerateTrace(p, 0, prof, 50, ChurnTraceSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := dynamic.Run(p, 0, tr, dynamic.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := dynamic.Run(p, 0, tr, dynamic.Config{ColdResolve: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range warm.Events {
				w, c := warm.Events[i].Optimal, cold.Events[i].Optimal
				rel := math.Abs(w-c) / math.Max(c, 1e-12)
				if rel > 1e-6 {
					t.Errorf("event %d (%v): warm optimum %v vs cold %v (rel %v)",
						i, warm.Events[i].Delta, w, c, rel)
				}
			}
		})
	}
}

// TestSweepChurnDeterministicAcrossWorkers the churn dimension must not
// break the sweep's byte-for-byte determinism regardless of worker count.
func TestSweepChurnDeterministicAcrossWorkers(t *testing.T) {
	cfg := SweepConfig{
		Scenarios:   []string{NameRing, NameLastMile},
		Sizes:       nil, // per-scenario defaults would be big; set explicitly below
		Heuristics:  []string{"grow-tree"},
		Repetitions: 2,
		Seed:        5,
		Churn:       true,
		ChurnEvents: 15,
	}
	cfg.Sizes = []int{8}
	var reports [][]byte
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		rep, err := Sweep(c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Fatal("churn sweep output differs across worker counts")
	}
}

// TestSweepChurnResults the churn dimension must attach results to every
// run row and produce one aggregate per cell with sane values.
func TestSweepChurnResults(t *testing.T) {
	rep, err := Sweep(SweepConfig{
		Scenarios:   []string{NameLastMile},
		Sizes:       []int{12},
		Heuristics:  []string{"grow-tree", "lp-grow-tree"},
		Repetitions: 2,
		Seed:        3,
		Churn:       true,
		ChurnEvents: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Churn == nil {
			t.Fatalf("run %s/%s has no churn result", r.Scenario, r.Heuristic)
		}
		if r.Churn.Error != "" {
			t.Fatalf("churn run failed: %s", r.Churn.Error)
		}
		if r.Churn.Events != 12 || r.Churn.Profile != dynamic.ProfileFailures {
			t.Fatalf("churn params %d/%q, want 12/%q", r.Churn.Events, r.Churn.Profile, dynamic.ProfileFailures)
		}
	}
	if len(rep.ChurnAggregates) != 1 {
		t.Fatalf("churn aggregates = %d, want 1", len(rep.ChurnAggregates))
	}
	ca := rep.ChurnAggregates[0]
	if ca.Samples != 2 {
		t.Fatalf("aggregate samples = %d, want 2", ca.Samples)
	}
	for name, ps := range map[string]PolicyChurnStats{"keep": ca.Keep, "repair": ca.Repair, "rebuild": ca.Rebuild} {
		if ps.MeanRatio < 0 || ps.MeanRatio > 1+1e-9 {
			t.Errorf("%s mean ratio %v outside [0, 1]", name, ps.MeanRatio)
		}
	}
	// The rebuild policy must track the optimum at least as well as keep on
	// a failure-heavy profile (keep breaks on the first tree failure).
	if ca.Rebuild.MeanRatio < ca.Keep.MeanRatio-1e-9 {
		t.Errorf("rebuild ratio %v below keep ratio %v", ca.Rebuild.MeanRatio, ca.Keep.MeanRatio)
	}
	if rep.Meta.TotalChurnResolvePivots == 0 {
		t.Error("meta reports no churn resolve pivots")
	}
	// Unknown churn profile overrides must be rejected helpfully.
	_, err = Sweep(SweepConfig{Scenarios: []string{NameRing}, Sizes: []int{8}, Churn: true, ChurnProfile: "bogus"})
	if err == nil {
		t.Fatal("unknown churn profile accepted")
	}
}
