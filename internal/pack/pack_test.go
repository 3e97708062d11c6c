package pack_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/heuristics"
	"repro/internal/pack"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/steady"
	"repro/internal/throughput"
	"repro/internal/topology"
)

// packTol is the contract bar pinned by ISSUE acceptance: the packed
// throughput matches the LP optimum within 1e-6 (scaled by the throughput
// magnitude for platforms broadcasting hundreds of slices per unit).
func packTol(tp float64) float64 { return 1e-6 * math.Max(1, math.Abs(tp)) }

func solveAndPack(t *testing.T, p *platform.Platform, source int, opts *pack.Options) (*steady.Solution, *steady.Packing) {
	t.Helper()
	sol, err := steady.Solve(p, source, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	pk, err := pack.Decompose(p, source, sol, opts)
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	return sol, pk
}

// benchCell is one platform of the repo benchmark (bench/workloads.go): a
// registry family and size under the benchmark's pool seed and the cell's
// instance number, solved the way the benchmark's plans are — on the revised
// master, whose edge rates are what its packings decompose.
type benchCell struct {
	family     string
	size, inst int
}

func (c benchCell) String() string { return fmt.Sprintf("%s:%d#%d", c.family, c.size, c.inst) }

func (c benchCell) solve(tb testing.TB) (*platform.Platform, *steady.Solution) {
	tb.Helper()
	s, err := scenarios.Get(c.family)
	if err != nil {
		tb.Fatal(err)
	}
	const poolSeed = 7
	p, err := s.Generate(c.size, topology.DeriveSeed(poolSeed, fmt.Sprintf("bench/%s:%d", c.family, c.size), c.inst))
	if err != nil {
		tb.Fatalf("%v: %v", c, err)
	}
	sol, err := steady.Solve(p, 0, nil)
	if err != nil {
		tb.Fatalf("%v: solve: %v", c, err)
	}
	return p, sol
}

// packKtreeCells are the eleven plans of the benchmark's pack-ktree workload.
var packKtreeCells = []benchCell{
	{"tiers", 192, 1},
	{"homogeneous-cluster", 48, 0},
	{"random-sparse", 64, 2}, {"random-sparse", 64, 1},
	{"tiers", 160, 0},
	{"random-dense", 48, 1}, {"random-dense", 48, 0}, {"random-dense", 48, 2},
	{"random-dense", 64, 2},
	{"homogeneous-cluster", 44, 0},
	{"homogeneous-cluster", 40, 0},
}

// formerKnownFailure is the cell that workload probed as a known failure:
// ErrNotPacked, 84.95 of 84.97, while column generation ended on a round cap
// of 4·|support|+16 = 508 with the master value still climbing. It reaches
// the LP throughput at round 557.
var formerKnownFailure = benchCell{"random-sparse", 64, 0}

// TestPackingInvariantsRegistryWide is the property tier over the whole
// scenario registry at every default size: each packed tree spans the alive
// nodes over live links rooted at the source, weights are strictly positive
// and sum to the packed throughput, per-link packed rates stay within the
// LP edge rates, one-port occupations stay within 1, and the packed
// throughput reaches the LP optimum within 1e-6.
func TestPackingInvariantsRegistryWide(t *testing.T) {
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, n := range s.DefaultSizes {
				p, err := s.Generate(n, 42)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				sol, pk := solveAndPack(t, p, 0, nil)
				if err := pk.Validate(p, sol.EdgeRate, packTol(sol.Throughput)); err != nil {
					t.Errorf("n=%d: %v", n, err)
				}
				if gap := sol.Throughput - pk.Throughput; math.Abs(gap) > packTol(sol.Throughput) {
					t.Errorf("n=%d: packed %v vs LP optimum %v (gap %v, %d trees)",
						n, pk.Throughput, sol.Throughput, gap, pk.NumTrees())
				}
				if pk.Source != 0 || pk.LPThroughput != sol.Throughput {
					t.Errorf("n=%d: packing records source=%d lp=%v, want 0/%v", n, pk.Source, pk.LPThroughput, sol.Throughput)
				}
				if pk.Truncated {
					t.Errorf("n=%d: uncapped decomposition reported Truncated", n)
				}
				if sol.Packing != pk {
					t.Errorf("n=%d: Decompose did not attach the packing to the solution", n)
				}
			}
		})
	}
}

// TestPackedBeatsEverySingleTree is the registry-wide differential: the
// k-tree packing throughput must dominate every single-tree one-port
// heuristic (the paper's core claim — one tree cannot achieve TP in
// general, a weighted forest always does).
func TestPackedBeatsEverySingleTree(t *testing.T) {
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, n := range s.DefaultSizes {
				p, err := s.Generate(n, 42)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				sol, pk := solveAndPack(t, p, 0, nil)
				bestName, best := "", 0.0
				for _, name := range heuristics.OnePortNames() {
					b, err := heuristics.ByNameWithRates(name, sol.EdgeRate)
					if err != nil {
						t.Fatal(err)
					}
					tree, err := b.Build(p, 0)
					if err != nil {
						t.Fatalf("n=%d: %s: %v", n, name, err)
					}
					if tp := throughput.OnePortThroughput(p, tree); tp > best {
						bestName, best = name, tp
					}
				}
				if pk.Throughput < best-packTol(best) {
					t.Errorf("n=%d: packed %v below best single tree %v (%s)", n, pk.Throughput, best, bestName)
				}
			}
		})
	}
}

// TestWarmRepackAfterChurnMatchesCold drives 50 churn events through a warm
// steady session and re-packs the refreshed solution; the result must match
// a cold re-solve + re-pack of the mutated platform to 1e-6 and satisfy
// every packing invariant.
func TestWarmRepackAfterChurnMatchesCold(t *testing.T) {
	const churnEvents = 50
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			size := s.DefaultSizes[0]
			p, err := s.Generate(size, 42)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := dynamic.ProfileByName(s.EffectiveChurnProfile())
			if err != nil {
				t.Fatal(err)
			}
			trace, err := dynamic.GenerateTrace(p, 0, prof, churnEvents, scenarios.ChurnTraceSeed(42))
			if err != nil {
				t.Fatal(err)
			}
			sess := steady.NewSession(p, 0, nil)
			if _, err := sess.Resolve(); err != nil {
				t.Fatalf("initial resolve: %v", err)
			}
			for i, ev := range trace.Events {
				if _, err := p.ApplyDelta(ev.Delta); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
			}
			warmSol, err := sess.Resolve()
			if err != nil {
				t.Fatalf("warm resolve: %v", err)
			}
			warmPk, err := pack.Decompose(p, 0, warmSol, nil)
			if err != nil {
				t.Fatalf("warm re-pack: %v", err)
			}
			coldSol, err := steady.Solve(p, 0, nil)
			if err != nil {
				t.Fatalf("cold resolve: %v", err)
			}
			coldPk, err := pack.Decompose(p, 0, coldSol, nil)
			if err != nil {
				t.Fatalf("cold re-pack: %v", err)
			}
			if err := warmPk.Validate(p, warmSol.EdgeRate, packTol(warmSol.Throughput)); err != nil {
				t.Errorf("warm packing: %v", err)
			}
			if gap := math.Abs(warmPk.Throughput - coldPk.Throughput); gap > packTol(coldPk.Throughput) {
				t.Errorf("warm re-pack %v vs cold %v (gap %v)", warmPk.Throughput, coldPk.Throughput, gap)
			}
		})
	}
}

// TestDecomposeDeterministic the same (platform, source, solution) must
// produce byte-identical packings on repeated runs — including the priced
// column order, which the JSON encoding exposes.
func TestDecomposeDeterministic(t *testing.T) {
	for _, name := range []string{scenarios.NameGrid, scenarios.NameRandomDense, scenarios.NameRing} {
		s, err := scenarios.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Generate(s.DefaultSizes[0], 7)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := steady.Solve(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var prev []byte
		for run := 0; run < 3; run++ {
			pk, err := pack.Decompose(p, 0, sol, nil)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			buf, err := json.Marshal(pk)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && string(buf) != string(prev) {
				t.Fatalf("%s: run %d packing differs from run %d", name, run, run-1)
			}
			prev = buf
		}
	}
}

// TestMaxTreesTruncation a tree cap below the optimal decomposition size
// keeps the heaviest trees, reports Truncated with the honest (smaller)
// throughput, and still satisfies every capacity invariant.
func TestMaxTreesTruncation(t *testing.T) {
	s, err := scenarios.Get(scenarios.NameGrid)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Generate(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	sol, full := solveAndPack(t, p, 0, nil)
	if full.NumTrees() < 3 {
		t.Skipf("grid decomposition has only %d trees; cannot exercise truncation", full.NumTrees())
	}
	cap := full.NumTrees() - 2
	capped, err := pack.Decompose(p, 0, sol, &pack.Options{MaxTrees: cap})
	if err != nil {
		t.Fatalf("capped decompose: %v", err)
	}
	if !capped.Truncated {
		t.Error("capped packing not marked Truncated")
	}
	if capped.NumTrees() != cap {
		t.Errorf("capped packing has %d trees, want %d", capped.NumTrees(), cap)
	}
	if capped.Throughput >= full.Throughput {
		t.Errorf("truncated throughput %v not below full %v", capped.Throughput, full.Throughput)
	}
	if err := capped.Validate(p, sol.EdgeRate, packTol(sol.Throughput)); err != nil {
		t.Errorf("capped packing invalid: %v", err)
	}
	// The kept trees must be the heaviest of the full decomposition.
	minKept := math.Inf(1)
	for _, pt := range capped.Trees {
		if pt.Weight < minKept {
			minKept = pt.Weight
		}
	}
	dropped := 0
	for _, pt := range full.Trees {
		if pt.Weight < minKept {
			dropped++
		}
	}
	if dropped > full.NumTrees()-cap {
		t.Errorf("truncation dropped a tree heavier than a kept one")
	}
}

// TestDecomposeDegenerate degenerate inputs must fail loudly, not pack
// garbage.
func TestDecomposeDegenerate(t *testing.T) {
	p := platform.New(1)
	sol, err := steady.Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pack.Decompose(p, 0, sol, nil); err == nil {
		t.Error("decomposing the infinite single-node solution did not fail")
	}
	s, _ := scenarios.Get(scenarios.NameRing)
	p2, err := s.Generate(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol2, err := steady.Solve(p2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pack.Decompose(p2, 0, &steady.Solution{Throughput: sol2.Throughput, EdgeRate: sol2.EdgeRate[:3]}, nil); err == nil {
		t.Error("mismatched edge-rate length did not fail")
	}
	if _, err := pack.Decompose(p2, 0, nil, nil); err == nil {
		t.Error("nil solution did not fail")
	}
}

// TestFormerKnownFailurePacks the benchmark's known-failure cell packs to the
// LP throughput now that column generation stops on progress, not on a round
// count: it needs 557 rounds where the cap allowed 508.
func TestFormerKnownFailurePacks(t *testing.T) {
	p, sol := formerKnownFailure.solve(t)
	pk, err := pack.Decompose(p, 0, sol, &pack.Options{MaxTrees: 256})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	if err := pk.Validate(p, sol.EdgeRate, packTol(sol.Throughput)); err != nil {
		t.Error(err)
	}
	if gap := sol.Throughput - pk.Throughput; math.Abs(gap) > packTol(sol.Throughput) {
		t.Errorf("packed %v vs LP optimum %v (gap %v)", pk.Throughput, sol.Throughput, gap)
	}
}

// TestNotPackedNamesItsExit a decomposition that ends short of the LP
// throughput says which exit ended it. Rates that cannot carry the claimed
// throughput end on the dual certificate: no tree prices in, and the master
// value is the most the rate graph holds.
func TestNotPackedNamesItsExit(t *testing.T) {
	s, err := scenarios.Get(scenarios.NameGrid)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Generate(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := steady.Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	inflated := &steady.Solution{Throughput: 1.5 * sol.Throughput, EdgeRate: sol.EdgeRate}
	pk, err := pack.Decompose(p, 0, inflated, nil)
	if !errors.Is(err, pack.ErrNotPacked) {
		t.Fatalf("decomposing rates that carry 2/3 of the claimed throughput: err = %v, want ErrNotPacked", err)
	}
	if !strings.Contains(err.Error(), "dual certificate") || !strings.Contains(err.Error(), "rounds") {
		t.Errorf("ErrNotPacked does not name the exit that ended column generation: %v", err)
	}
	// The short packing is still the best one inside the rate graph.
	if pk == nil || math.Abs(pk.Throughput-sol.Throughput) > packTol(sol.Throughput) {
		t.Errorf("short packing %+v, want the rate graph's own optimum %v", pk, sol.Throughput)
	} else if err := pk.Validate(p, sol.EdgeRate, packTol(sol.Throughput)); err != nil {
		t.Error(err)
	}
}

// TestMasterMatchesDenseOracle is the differential tier of the warm dual
// master: after every column-generation round the restricted master is
// re-solved, on the same tree set, as the primal over all its trees rebuilt
// from scratch and solved cold on a fresh lp.Revised handle — and
// the two values must agree within 1e-7·max(1, TP); the finished packing must
// validate and sit within 1e-6 of the LP optimum. Registry-wide at the
// default sizes, then on the benchmark's pack-ktree cells (skipped with
// -short: the oracle is what made those plans slow).
func TestMasterMatchesDenseOracle(t *testing.T) {
	check := func(t *testing.T, name string, p *platform.Platform, sol *steady.Solution, opts *pack.Options) {
		t.Helper()
		bar := 1e-7 * math.Max(1, sol.Throughput)
		rounds, worst := 0, 0.0
		pk, err := pack.DecomposeAgainstOracle(p, 0, sol, opts, func(round int, value, oracle float64) {
			rounds++
			if diff := math.Abs(value - oracle); diff > worst {
				worst = diff
				if diff > bar {
					t.Errorf("%s round %d: dual master %v, primal oracle %v (diff %v > %v)", name, round, value, oracle, diff, bar)
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rounds != pk.Rounds || rounds == 0 {
			t.Errorf("%s: oracle saw %d rounds, packing records %d", name, rounds, pk.Rounds)
		}
		if err := pk.Validate(p, sol.EdgeRate, packTol(sol.Throughput)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if gap := math.Abs(sol.Throughput - pk.Throughput); gap > packTol(sol.Throughput) && !pk.Truncated {
			t.Errorf("%s: packed %v vs LP optimum %v", name, pk.Throughput, sol.Throughput)
		}
	}
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, n := range s.DefaultSizes {
				p, err := s.Generate(n, 42)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				sol, err := steady.Solve(p, 0, nil)
				if err != nil {
					t.Fatalf("n=%d: solve: %v", n, err)
				}
				check(t, fmt.Sprintf("n=%d", n), p, sol, nil)
			}
		})
	}
	t.Run("pack-ktree", func(t *testing.T) {
		if testing.Short() {
			t.Skip("primal oracle on every round of the benchmark cells")
		}
		for _, c := range packKtreeCells {
			c := c
			t.Run(c.String(), func(t *testing.T) {
				t.Parallel()
				p, sol := c.solve(t)
				check(t, c.String(), p, sol, &pack.Options{MaxTrees: 256})
			})
		}
	})
}

// BenchmarkDecompose measures the packing cost alone (solve excluded): on
// representative registry platforms, on the eleven plans of the repo
// benchmark's pack-ktree workload, and on the cell that workload listed as a
// known failure. Beside ns/op and the allocation columns each case reports
// its column-generation rounds and master pivots, both deterministic. CI
// publishes one pass as BENCH_pack.txt.
func BenchmarkDecompose(b *testing.B) {
	run := func(name string, p *platform.Platform, sol *steady.Solution, opts *pack.Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var pk *steady.Packing
			for i := 0; i < b.N; i++ {
				var err error
				if pk, err = pack.Decompose(p, 0, sol, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pk.Rounds), "rounds")
			b.ReportMetric(float64(pk.MasterPivots), "pivots")
		})
	}
	for _, c := range []struct {
		family string
		size   int
	}{
		{scenarios.NameClusters, 96},
		{scenarios.NameTiers, 96},
		{scenarios.NameRandomDense, 50},
		{scenarios.NameGrid, 36},
	} {
		s, err := scenarios.Get(c.family)
		if err != nil {
			b.Fatal(err)
		}
		p, err := s.Generate(c.size, 42)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := steady.Solve(p, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		run(c.family, p, sol, nil)
	}
	for _, c := range append(packKtreeCells[:len(packKtreeCells):len(packKtreeCells)], formerKnownFailure) {
		p, sol := c.solve(b)
		run("pack-ktree/"+c.String(), p, sol, &pack.Options{MaxTrees: 256})
	}
}
