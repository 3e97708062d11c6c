package scenarios

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/steady"
	"repro/internal/throughput"
)

// assertCertified checks a steady solution with steady.Certify, which trusts
// no LP: the edge rates carry the throughput within the one-port
// constraints and the port prices prove it optimal, both to 1e-6.
func assertCertified(t *testing.T, p *platform.Platform, source int, sol *steady.Solution, label string) {
	t.Helper()
	if _, _, err := steady.Certify(p, source, sol); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// assertWithin checks a throughput reported without its rates against the
// bounds Certify proves from a reference solution of the same platform:
// Lower·(1−1e-6) <= tp <= Upper·(1+1e-6).
func assertWithin(t *testing.T, p *platform.Platform, source int, ref *steady.Solution, tp float64, label string) {
	t.Helper()
	lower, upper, err := steady.Certify(p, source, ref)
	switch {
	case err != nil:
		t.Errorf("%s: reference: %v", label, err)
	case tp < lower*(1-1e-6) || tp > upper*(1+1e-6):
		t.Errorf("%s: throughput %v outside the certified [%v, %v]", label, tp, lower, upper)
	}
}

// TestSteadyWarmColdDirectAcrossRegistry is the differential harness of the
// master LP: on every registered scenario family at its default sizes, the
// warm-started cutting-plane solver (the session on lp.Revised) must pass
// Certify and — where LP (2) is small enough to write out — agree with its
// direct encoding on the optimal throughput.
func TestSteadyWarmColdDirectAcrossRegistry(t *testing.T) {
	const (
		source = 0
		seed   = 29
		relTol = 1e-6
		// SolveDirect has one flow variable per (destination, link) pair.
		maxDirectVars = 2000
	)
	agree := func(t *testing.T, size int, aName string, a float64, bName string, b float64) {
		t.Helper()
		if math.Abs(a-b)/math.Max(b, 1e-12) > relTol {
			t.Errorf("n=%d: %s %v vs %s %v", size, aName, a, bName, b)
		}
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, size := range s.DefaultSizes {
				if testing.Short() && size != s.DefaultSizes[0] {
					continue
				}
				p, err := s.Generate(size, seed)
				if err != nil {
					t.Fatalf("n=%d: generate: %v", size, err)
				}
				// A tight gap tolerance makes the cutting-plane loop run to
				// full separation convergence, so both solvers agree to 1e-6
				// instead of only to the default 1e-5 early-exit gap.
				warm, err := steady.Solve(p, source, &steady.Options{GapTolerance: 1e-9})
				if err != nil {
					t.Fatalf("n=%d: warm: %v", size, err)
				}
				assertCertified(t, p, source, warm, fmt.Sprintf("n=%d: warm", size))
				if (p.NumNodes()-1)*p.NumLinks() > maxDirectVars {
					continue
				}
				direct, err := steady.SolveDirect(p, source, nil)
				if err != nil {
					t.Fatalf("n=%d: direct: %v", size, err)
				}
				agree(t, size, "warm", warm.Throughput, "direct", direct.Throughput)
			}
		})
	}
}

// TestAnalyticThroughputMatchesSimulation is the differential harness: the
// analytic steady-state throughput (internal/throughput, derived from the
// steady-state equations of internal/steady) must agree with the
// slice-by-slice discrete-event simulation (internal/sim) within tolerance
// across a seeded sample of scenario families, heuristics and port models.
func TestAnalyticThroughputMatchesSimulation(t *testing.T) {
	const (
		source = 0
		slices = 400
		relTol = 0.05 // the simulated rate converges to the analytic one as slices grows
	)
	cases := []struct {
		scenario  string
		heuristic string
		m         model.PortModel
	}{
		{NameStar, heuristics.NameGrowTree, model.OnePortBidirectional},
		{NameChain, heuristics.NamePruneSimple, model.OnePortBidirectional},
		{NameClusters, heuristics.NamePruneDegree, model.OnePortBidirectional},
		{NameGrid, heuristics.NameGrowTree, model.OnePortBidirectional},
		{NameRandomSparse, heuristics.NameLPGrowTree, model.OnePortBidirectional},
		{NameLastMile, heuristics.NamePruneDegree, model.OnePortBidirectional},
		{NameTiers, heuristics.NameGrowTree, model.OnePortBidirectional},
		{NameClusters, heuristics.NameMultiportGrowTree, model.MultiPort},
		{NameRandomDense, heuristics.NameMultiportPruneDegree, model.MultiPort},
	}
	for _, c := range cases {
		c := c
		t.Run(c.scenario+"/"+c.heuristic, func(t *testing.T) {
			s, err := Get(c.scenario)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{3, 17} {
				p, err := s.Generate(testSize(s), seed)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				builder, err := heuristics.ByName(c.heuristic)
				if err != nil {
					t.Fatal(err)
				}
				tree, err := builder.Build(p, source)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				analytic := throughput.TreeThroughput(p, tree, c.m)
				if analytic <= 0 || math.IsInf(analytic, 0) {
					t.Fatalf("analytic throughput %v", analytic)
				}
				measured, err := sim.MeasureThroughput(p, tree, c.m, slices)
				if err != nil {
					t.Fatalf("simulate: %v", err)
				}
				rel := math.Abs(measured-analytic) / analytic
				if rel > relTol {
					t.Errorf("seed %d: simulated %v vs analytic %v (rel diff %.3f > %.2f)",
						seed, measured, analytic, rel, relTol)
				}
			}
		})
	}
}
