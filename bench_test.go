package broadcast

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (Section 5), plus micro-benchmarks for the individual
// building blocks (LP bound, heuristics, simulator).
//
// The figure/table benchmarks print the regenerated rows (mean relative
// performance ± deviation per heuristic) once per run through b.Logf, so
// `go test -bench . -benchmem` both times the harness and reproduces the
// paper's numbers at a reduced scale; use cmd/bcast-bench -scale paper for
// the full-size run recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/topology"
)

// benchName builds a sub-benchmark name like "nodes=30".
func benchName(key string, v int) string { return fmt.Sprintf("%s=%d", key, v) }

// benchConfig is the reduced experiment configuration used inside the
// benchmarks: same sweep structure as the paper, smaller repetition counts
// so a -bench run stays in the seconds range.
func benchConfig() ExperimentConfig {
	return ExperimentConfig{
		Seed:                2004,
		Configurations:      2,
		TiersConfigurations: 3,
		NodeCounts:          []int{10, 20, 30},
		Densities:           []float64{0.08, 0.16},
		MultiPortFraction:   0.8,
	}
}

// logTable prints a regenerated table once per benchmark.
var logOnce sync.Map

func logTable(b *testing.B, t *ResultTable) {
	b.Helper()
	if _, done := logOnce.LoadOrStore(t.ID+b.Name(), true); !done {
		b.Logf("\n%s", t.Format())
	}
}

// BenchmarkFig4aNodes regenerates Figure 4(a): relative performance of the
// one-port heuristics versus the number of nodes on random platforms.
func BenchmarkFig4aNodes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig4a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, table)
	}
}

// BenchmarkFig4bDensity regenerates Figure 4(b): relative performance versus
// platform density.
func BenchmarkFig4bDensity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig4b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, table)
	}
}

// BenchmarkFig5Multiport regenerates Figure 5: the multi-port heuristics
// versus the number of nodes (one-port MTP optimum as the reference, so
// ratios above 1 are possible).
func BenchmarkFig5Multiport(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, table)
	}
}

// BenchmarkTable3Tiers regenerates Table 3: the one-port heuristics on
// Tiers-like platforms with 30 and 65 nodes.
func BenchmarkTable3Tiers(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, table)
	}
}

// BenchmarkAblationSendFraction sweeps the multi-port send-overhead fraction
// (the paper argues the results do not strongly depend on the 80% choice).
func BenchmarkAblationSendFraction(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationSendFraction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, table)
	}
}

// BenchmarkAblationPortDirection evaluates the one-port heuristics under the
// stricter unidirectional one-port model.
func BenchmarkAblationPortDirection(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationPortDirection(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, table)
	}
}

// --- micro-benchmarks -------------------------------------------------------

// benchPlatform returns a fixed mid-size random platform.
func benchPlatform(b *testing.B, nodes int, density float64) *Platform {
	b.Helper()
	p, err := RandomPlatform(nodes, density, 42)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSteadySolve times the cutting-plane MTP reference solve on the
// hierarchical registry families (where the master accumulates the most
// cuts) at their largest default sizes, plus two flatter families for
// contrast, then on the LP-bound cells of the repo benchmark's cold-lp
// workload. It reports simplex pivots, rounds and cold master solves per
// solve; the CI perf job runs it with -benchtime=1x and archives the output
// (BENCH_steady.txt) to track the solver's trajectory.
func BenchmarkSteadySolve(b *testing.B) {
	// cold-solves/op is 1 when every round after the first re-solves warm;
	// anything above it is a warm re-solve that fell back.
	run := func(name string, p *Platform) {
		b.Run(name, func(b *testing.B) {
			var pivots, rounds, coldSolves int
			for i := 0; i < b.N; i++ {
				sol, err := OptimalThroughput(p, 0)
				if err != nil {
					b.Fatal(err)
				}
				pivots += sol.LPIterations
				rounds += sol.Rounds
				coldSolves += sol.ColdSolves
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(coldSolves)/float64(b.N), "cold-solves/op")
		})
	}
	for _, c := range []struct {
		scenario string
		size     int
	}{
		{"cluster-of-clusters", 96},
		{"tiers", 96},
		{"random-sparse", 50},
		{"last-mile", 48},
	} {
		p, err := GenerateScenario(c.scenario, c.size, 42)
		if err != nil {
			b.Fatal(err)
		}
		run(fmt.Sprintf("%s/n=%d", c.scenario, c.size), p)
	}

	// The LP-bound cells: the nine platforms of the repo benchmark's cold-lp
	// workload (bench/workloads.go: pool seed 7, instance-derived seeds) and
	// grid:256. An LP change shows here as a committed-shape before/after
	// without the benchmark driver.
	for _, c := range []struct {
		scenario   string
		size, inst int // inst < 0: the plain registry platform at seed 7
	}{
		{"random-dense", 80, 0},
		{"grid", 81, 0}, {"grid", 81, 3}, {"grid", 81, 1},
		{"random-dense", 64, 0}, {"random-dense", 64, 1},
		{"random-sparse", 96, 4},
		{"tiers", 224, 0},
		{"grid", 64, 3},
		{"grid", 256, -1},
	} {
		name, seed := fmt.Sprintf("%s:%d", c.scenario, c.size), int64(7)
		if c.inst >= 0 {
			seed = topology.DeriveSeed(7, "bench/"+name, c.inst)
			name = fmt.Sprintf("%s#%d", name, c.inst)
		}
		p, err := GenerateScenario(c.scenario, c.size, seed)
		if err != nil {
			b.Fatal(err)
		}
		run("cold-lp/"+name, p)
	}
}

// BenchmarkChurnResolve compares the steady-state re-solve cost across a
// churn trace in the two modes of the dynamic engine: the warm session
// (one master LP and cut pool carried across mutations; tightening events
// append rows into the previous optimal basis, loosening events rebuild
// from the pool) against per-event cold solves from scratch. It reports
// total simplex pivots per trace — the acceptance metric of the dynamic
// subsystem — plus the warm/rebuild split; the CI perf job archives the
// output as BENCH_churn.txt.
func BenchmarkChurnResolve(b *testing.B) {
	for _, c := range []struct {
		scenario string
		size     int
	}{
		{"cluster-of-clusters", 32},
		{"tiers", 32},
		{"random-sparse", 20},
	} {
		p, trace, err := ScenarioChurnTrace(c.scenario, c.size, 0, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			cold bool
		}{
			{"warm-session", false},
			{"cold-per-event", true},
		} {
			b.Run(fmt.Sprintf("%s/n=%d/%s", c.scenario, c.size, mode.name), func(b *testing.B) {
				var pivots, warm, rebuilds int
				for i := 0; i < b.N; i++ {
					rep, err := RunChurn(p, 0, trace, ChurnConfig{ColdResolve: mode.cold})
					if err != nil {
						b.Fatal(err)
					}
					pivots += rep.ResolvePivots
					warm += rep.LP.WarmResolves
					rebuilds += rep.LP.Rebuilds
				}
				b.ReportMetric(float64(pivots)/float64(b.N), "pivots/trace")
				b.ReportMetric(float64(warm)/float64(b.N), "warm-resolves/trace")
				b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/trace")
			})
		}
	}
}

// BenchmarkOptimalThroughputLP times the cutting-plane solver for the MTP
// optimum (the reference bound of every figure).
func BenchmarkOptimalThroughputLP(b *testing.B) {
	for _, size := range []struct {
		nodes   int
		density float64
	}{{20, 0.12}, {30, 0.12}, {50, 0.12}} {
		p := benchPlatform(b, size.nodes, size.density)
		b.Run(benchName("nodes", size.nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OptimalThroughput(p, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeuristics times every tree-construction heuristic on a 30-node
// random platform.
func BenchmarkHeuristics(b *testing.B) {
	p := benchPlatform(b, 30, 0.12)
	opt, err := OptimalThroughput(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range Heuristics() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				switch name {
				case LPPrune, LPGrowTree:
					// Use the precomputed rates, as the experiment harness
					// does, so the benchmark isolates the tree construction.
					_, err = BuildTreeWithRates(p, 0, name, opt.EdgeRate)
				default:
					_, err = BuildTree(p, 0, name)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator times the slice-by-slice simulation of a pipelined
// broadcast along a grow-tree schedule.
func BenchmarkSimulator(b *testing.B) {
	p := benchPlatform(b, 30, 0.12)
	tree, err := BuildTree(p, 0, GrowTree)
	if err != nil {
		b.Fatal(err)
	}
	for _, slices := range []int{100, 1000} {
		b.Run(benchName("slices", slices), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(p, tree, OnePort, slices); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeThroughput times the analytic evaluation of a tree.
func BenchmarkTreeThroughput(b *testing.B) {
	p := benchPlatform(b, 50, 0.12)
	tree, err := BuildTree(p, 0, PruneDegree)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if TreeThroughput(p, tree, OnePort) <= 0 {
			b.Fatal("non-positive throughput")
		}
	}
}

// BenchmarkRandomPlatformGeneration times the Table 2 platform generator.
func BenchmarkRandomPlatformGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RandomPlatform(50, 0.12, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTiersPlatformGeneration times the Tiers-like generator used by
// Table 3.
func BenchmarkTiersPlatformGeneration(b *testing.B) {
	cfg := Tiers65Config()
	for i := 0; i < b.N; i++ {
		if _, err := TiersPlatform(cfg, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
