package scenarios

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/steady"
)

func smallSweepConfig() SweepConfig {
	return SweepConfig{
		Scenarios:   []string{NameStar, NameChain, NameClusters},
		Sizes:       []int{8, 12},
		Heuristics:  []string{heuristics.NamePruneSimple, heuristics.NameGrowTree, heuristics.NameLPPrune},
		Repetitions: 2,
		Seed:        9,
	}
}

// TestSweepDeterministicAcrossWorkerCounts checks the central ordering
// guarantee: the marshalled report is byte-identical regardless of the
// number of workers racing over the units — including worker counts far
// beyond the unit count.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var reports [][]byte
	for _, workers := range []int{1, 4, 4, 32} {
		cfg := smallSweepConfig()
		cfg.Workers = workers
		rep, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("sweep output differs between runs/worker counts:\n%s\n%s", reports[0], reports[i])
		}
	}
}

// TestSweepSharedPlannerCacheHits routes two sweeps through one planning
// engine: the second sweep's reference solves are all served from the
// engine's fingerprint-keyed cache, and the reports stay byte-identical.
func TestSweepSharedPlannerCacheHits(t *testing.T) {
	engine := service.New(service.Config{})
	cfg := smallSweepConfig()
	cfg.Planner = engine
	first, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := engine.Stats()
	if afterFirst.Hits != 0 {
		t.Fatalf("first sweep had %d cache hits, want 0", afterFirst.Hits)
	}
	units := afterFirst.Misses
	if units == 0 || afterFirst.Solves != units {
		t.Fatalf("first sweep stats = %+v, want one solve per unit", afterFirst)
	}

	cfg = smallSweepConfig()
	cfg.Planner = engine
	cfg.Workers = 4
	second, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := engine.Stats()
	if st.Hits != units {
		t.Errorf("second sweep hit the cache %d times, want %d (every unit)", st.Hits, units)
	}
	if st.Solves != units {
		t.Errorf("second sweep re-solved: %d total solves, want %d", st.Solves, units)
	}

	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cached sweep report differs from the solved one")
	}
}

func TestSweepOrderingAndContents(t *testing.T) {
	cfg := smallSweepConfig()
	cfg.Workers = 4
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(cfg.Scenarios) * len(cfg.Sizes) * cfg.Repetitions * len(cfg.Heuristics)
	if len(rep.Runs) != wantRuns || rep.Meta.TotalRuns != wantRuns {
		t.Fatalf("got %d runs (meta %d), want %d", len(rep.Runs), rep.Meta.TotalRuns, wantRuns)
	}
	// Runs must appear in (scenario, size, rep, heuristic) order.
	i := 0
	for _, scen := range cfg.Scenarios {
		for _, size := range cfg.Sizes {
			for r := 0; r < cfg.Repetitions; r++ {
				for _, h := range cfg.Heuristics {
					run := rep.Runs[i]
					if run.Scenario != scen || run.Size != size || run.Rep != r || run.Heuristic != h {
						t.Fatalf("run %d = (%s,%d,%d,%s), want (%s,%d,%d,%s)",
							i, run.Scenario, run.Size, run.Rep, run.Heuristic, scen, size, r, h)
					}
					if run.Error != "" {
						t.Errorf("run %d failed: %s", i, run.Error)
					}
					if run.Nodes != size {
						t.Errorf("run %d generated %d nodes, want %d", i, run.Nodes, size)
					}
					if math.IsNaN(run.Ratio) || run.Ratio <= 0 || run.Ratio > 1+1e-6 {
						t.Errorf("run %d ratio %v outside (0, 1]", i, run.Ratio)
					}
					if run.WallNanos != 0 {
						t.Errorf("run %d records wall time without RecordTimings", i)
					}
					i++
				}
			}
		}
	}
	wantAggs := len(cfg.Scenarios) * len(cfg.Sizes) * len(cfg.Heuristics)
	if len(rep.Aggregates) != wantAggs {
		t.Fatalf("got %d aggregates, want %d", len(rep.Aggregates), wantAggs)
	}
	for _, a := range rep.Aggregates {
		if a.Samples != cfg.Repetitions || a.Errors != 0 {
			t.Errorf("aggregate %s/%d/%s: %d samples, %d errors", a.Scenario, a.Size, a.Heuristic, a.Samples, a.Errors)
		}
		if a.MinRatio > a.MeanRatio || a.MeanRatio > a.MaxRatio {
			t.Errorf("aggregate %s/%d/%s: min %v mean %v max %v out of order",
				a.Scenario, a.Size, a.Heuristic, a.MinRatio, a.MeanRatio, a.MaxRatio)
		}
	}
	if rep.Format() == "" {
		t.Error("empty formatted report")
	}
}

// TestSweepStreamsEveryResult checks the OnResult streaming hook: every run
// is delivered exactly once and the serialized callback may mutate shared
// state without further locking (exercised under -race in CI).
func TestSweepStreamsEveryResult(t *testing.T) {
	cfg := smallSweepConfig()
	cfg.Workers = 8
	seen := make(map[string]int)
	cfg.OnResult = func(r RunResult) {
		seen[r.Scenario]++
	}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != rep.Meta.TotalRuns {
		t.Fatalf("streamed %d results, want %d", total, rep.Meta.TotalRuns)
	}
	perScenario := len(cfg.Sizes) * cfg.Repetitions * len(cfg.Heuristics)
	for _, scen := range cfg.Scenarios {
		if seen[scen] != perScenario {
			t.Errorf("scenario %s streamed %d results, want %d", scen, seen[scen], perScenario)
		}
	}
}

func TestSweepDefaultsCoverWholeRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry sweep in -short mode")
	}
	rep, err := Sweep(SweepConfig{
		Sizes:       []int{8},
		Heuristics:  []string{heuristics.NamePruneSimple},
		Repetitions: 1,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Meta.Scenarios) != len(Names()) {
		t.Fatalf("default sweep covered %v, want all of %v", rep.Meta.Scenarios, Names())
	}
	for _, r := range rep.Runs {
		if r.Error != "" {
			t.Errorf("%s: %s", r.Scenario, r.Error)
		}
	}
}

func TestSweepMultiPortEvaluation(t *testing.T) {
	rep, err := Sweep(SweepConfig{
		Scenarios:   []string{NameClusters},
		Sizes:       []int{12},
		Heuristics:  heuristics.MultiPortNames(),
		Repetitions: 1,
		Seed:        5,
		EvalModel:   model.MultiPort,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Error != "" {
			t.Errorf("%s/%s: %s", r.Scenario, r.Heuristic, r.Error)
		}
		// Multi-port trees are normalized by the one-port optimum, so ratios
		// above 1 are legitimate (paper Figure 5) — but they stay finite.
		if math.IsNaN(r.Ratio) || r.Ratio <= 0 {
			t.Errorf("%s/%s: non-positive ratio %v", r.Scenario, r.Heuristic, r.Ratio)
		}
	}
}

// TestSweepMetaRecordsEffectiveSizes is the regression test for the
// non-self-describing report: the meta block must record the sizes actually
// swept per scenario, both when they were requested explicitly and when each
// scenario fell back to its own defaults.
func TestSweepMetaRecordsEffectiveSizes(t *testing.T) {
	// Explicit sizes: every scenario records exactly the requested list.
	cfg := smallSweepConfig()
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Meta.Sizes) != len(cfg.Scenarios) {
		t.Fatalf("meta sizes cover %d scenarios, want %d", len(rep.Meta.Sizes), len(cfg.Scenarios))
	}
	for _, scen := range cfg.Scenarios {
		got := rep.Meta.Sizes[scen]
		if len(got) != len(cfg.Sizes) {
			t.Fatalf("meta sizes for %s = %v, want %v", scen, got, cfg.Sizes)
		}
		for i, n := range cfg.Sizes {
			if got[i] != n {
				t.Fatalf("meta sizes for %s = %v, want %v", scen, got, cfg.Sizes)
			}
		}
	}

	// Default sizes: each scenario records its own DefaultSizes (they differ
	// across scenarios, so the old flat []int could not describe this sweep).
	rep, err = Sweep(SweepConfig{
		Scenarios:   []string{NameStar, NameLastMile},
		Heuristics:  []string{heuristics.NamePruneSimple},
		Repetitions: 1,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{NameStar, NameLastMile} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Meta.Sizes[name]
		if len(got) != len(s.DefaultSizes) {
			t.Fatalf("meta sizes for default sweep of %s = %v, want %v", name, got, s.DefaultSizes)
		}
		for i, n := range s.DefaultSizes {
			if got[i] != n {
				t.Fatalf("meta sizes for default sweep of %s = %v, want %v", name, got, s.DefaultSizes)
			}
		}
	}
}

// TestSweepRecordsLPStats: every run carries the master-LP statistics of its
// platform, and the meta totals count each platform exactly once.
func TestSweepRecordsLPStats(t *testing.T) {
	cfg := smallSweepConfig()
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := 0
	seen := make(map[int64]bool) // platform seeds are unique per unit
	for _, r := range rep.Runs {
		if r.LPRounds <= 0 || r.LPPivots <= 0 {
			t.Fatalf("run %s/%d/%d missing LP stats: %+v", r.Scenario, r.Size, r.Rep, r)
		}
		if r.LPWarmPivots+r.LPColdPivots != r.LPPivots {
			t.Fatalf("run %s/%d/%d: warm %d + cold %d != total %d",
				r.Scenario, r.Size, r.Rep, r.LPWarmPivots, r.LPColdPivots, r.LPPivots)
		}
		if !seen[r.Seed] {
			seen[r.Seed] = true
			wantTotal += r.LPPivots
		}
	}
	if rep.Meta.TotalLPPivots != wantTotal {
		t.Fatalf("meta total LP pivots %d, want %d (each platform once)", rep.Meta.TotalLPPivots, wantTotal)
	}
	if rep.Meta.TotalLPWarmPivots+rep.Meta.TotalLPColdPivots != rep.Meta.TotalLPPivots {
		t.Fatalf("meta pivot split %d + %d != %d",
			rep.Meta.TotalLPWarmPivots, rep.Meta.TotalLPColdPivots, rep.Meta.TotalLPPivots)
	}
}

// TestSweepOptimaMatchColdReference: the optimum a sweep run reports — solved
// warm, through the planning engine — lies in the bounds steady.Certify
// proves for a cold solve of the regenerated platform.
func TestSweepOptimaMatchColdReference(t *testing.T) {
	rep, err := Sweep(SweepConfig{
		Scenarios:   []string{NameClusters},
		Sizes:       []int{12},
		Heuristics:  []string{heuristics.NamePruneSimple},
		Repetitions: 2,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Get(NameClusters)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Runs {
		p, err := s.Generate(r.Size, r.Seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := steady.Solve(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertWithin(t, p, 0, ref, r.Optimal, fmt.Sprintf("run %d", i))
	}
}

// TestSweepIterationLimitedLPSurfacesAsError is the sweep-level regression
// test for the silent zero-throughput poisoning: with a 1-pivot LP budget
// every run must carry an error — never a nil-error sample with throughput 0
// or a NaN ratio that would silently skew the aggregates.
func TestSweepIterationLimitedLPSurfacesAsError(t *testing.T) {
	rep, err := Sweep(SweepConfig{
		Scenarios:       []string{NameStar, NameClusters},
		Sizes:           []int{8},
		Heuristics:      []string{heuristics.NamePruneSimple},
		Repetitions:     1,
		Seed:            7,
		LPMaxIterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Error == "" {
			t.Errorf("%s: iteration-limited LP produced a silent sample (optimal %v, ratio %v)",
				r.Scenario, r.Optimal, r.Ratio)
		}
		if math.IsNaN(r.Ratio) {
			t.Errorf("%s: NaN ratio leaked into the report", r.Scenario)
		}
	}
	for _, a := range rep.Aggregates {
		if a.Errors == 0 || a.Samples != 0 {
			t.Errorf("aggregate %s/%d: %d samples, %d errors — errors must not count as samples",
				a.Scenario, a.Size, a.Samples, a.Errors)
		}
	}
}

func TestSweepConfigErrors(t *testing.T) {
	if _, err := Sweep(SweepConfig{Scenarios: []string{"no-such-family"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Sweep(SweepConfig{Scenarios: []string{NameTiers}, Sizes: []int{4}}); err == nil {
		t.Error("size below scenario minimum accepted")
	}
	if _, err := Sweep(SweepConfig{Scenarios: []string{NameStar}, Sizes: []int{8}, Heuristics: []string{"bogus"}}); err == nil {
		t.Error("unknown heuristic accepted")
	}
	if _, err := Sweep(SweepConfig{Scenarios: []string{NameStar, NameStar}}); err == nil {
		t.Error("duplicated scenario accepted (would double-count aggregates)")
	}
	if _, err := Sweep(SweepConfig{
		Scenarios:  []string{NameStar},
		Sizes:      []int{8},
		Heuristics: []string{heuristics.NameGrowTree, heuristics.NameGrowTree},
	}); err == nil {
		t.Error("duplicated heuristic accepted (would double-count aggregates)")
	}
}
