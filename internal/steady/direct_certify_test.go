package steady_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/steady"
	"repro/internal/topology"
)

// TestSolveDirectAgreesWithCuttingPlaneOnGrid16 replays the six grid:16
// instances on which the dense simplex, SolveDirect's backend until it moved
// to lp.Revised, ended "optimal" on a point that violates LP (2): throughput
// 104.000 where the cutting-plane masters agree on 89.016 (instance 2),
// 92.331 where they find 92.552 (instance 3), the right throughput on rates
// with a one-port occupation of 2.7 (instance 4). The model check SolveDirect
// runs (now Certify) rejected all six; on the revised simplex each must
// solve, pass Certify, and agree with the cutting-plane optimum within 1e-6.
func TestSolveDirectAgreesWithCuttingPlaneOnGrid16(t *testing.T) {
	grid, err := scenarios.Get(scenarios.NameGrid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		i := i
		t.Run(fmt.Sprintf("instance-%d", i), func(t *testing.T) {
			t.Parallel()
			p, err := grid.Generate(16, topology.DeriveSeed(7, "bench/grid:16", i))
			if err != nil {
				t.Fatal(err)
			}
			cut, err := steady.Solve(p, 0, nil)
			if err != nil {
				t.Fatalf("cutting plane: %v", err)
			}
			direct, err := steady.SolveDirect(p, 0, nil)
			if err != nil {
				t.Fatalf("SolveDirect: %v", err)
			}
			if diff := math.Abs(direct.Throughput - cut.Throughput); diff > 1e-6*math.Max(1, cut.Throughput) {
				t.Errorf("SolveDirect %v, cutting plane %v (diff %v)", direct.Throughput, cut.Throughput, diff)
			}
		})
	}
}

// TestSolveDirectOnMutatedPlatforms: SolveDirect writes LP (2) over the
// live state — alive destinations and relays, live links, current slice
// times — so on a mutated platform it agrees with Solve within 1e-6 and its
// point passes Certify. (It used to write LP (2) over every link and node: on
// ring:8 with link 0 down it reported 94.28 where the live optimum is 63.37.)
func TestSolveDirectOnMutatedPlatforms(t *testing.T) {
	ring, err := scenarios.Get(scenarios.NameRing)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []platform.Delta{
		{Kind: platform.DeltaLinkDown, Link: 0},
		{Kind: platform.DeltaNodeDown, Node: 1},
		{Kind: platform.DeltaScaleLink, Link: 0, Factor: 3},
	} {
		p, err := ring.Generate(8, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ApplyDelta(d); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		cut, err := steady.Solve(p, 0, nil)
		if err != nil {
			t.Fatalf("%v: cutting plane: %v", d, err)
		}
		direct, err := steady.SolveDirect(p, 0, nil)
		if err != nil {
			t.Fatalf("%v: SolveDirect: %v", d, err)
		}
		if diff := math.Abs(direct.Throughput - cut.Throughput); diff > 1e-6*math.Max(1, cut.Throughput) {
			t.Errorf("%v: SolveDirect %v, cutting plane %v (diff %v)", d, direct.Throughput, cut.Throughput, diff)
		}
		if _, _, err := steady.Certify(p, 0, direct); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

// TestDenseSolveNeverReportsViolatingPointOnGrid16 is the regression test of
// the dense oracle's fence on the same six instances: lp.Solve used to end
// "optimal" on every one of these LP (2) problems with a point that violates
// its own rows. Whatever it reports now must hold up against the model — the
// rates carry the throughput and respect the one-port occupations — and what
// it cannot stand behind must come back as lp.ErrNotCertified. The dense simplex needs 2 to 7 s per
// instance to get there, and twenty times that under the race detector, so
// the test runs behind BCAST_LARGE=1 (it has its own CI step); the fence's
// accept/reject rule itself is pinned on every run by lp's
// TestCertifyRejectsViolatingPoints.
func TestDenseSolveNeverReportsViolatingPointOnGrid16(t *testing.T) {
	if os.Getenv("BCAST_LARGE") == "" {
		t.Skip("set BCAST_LARGE=1: 34 CPU-seconds of dense pivoting")
	}
	grid, err := scenarios.Get(scenarios.NameGrid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		i := i
		t.Run(fmt.Sprintf("instance-%d", i), func(t *testing.T) {
			t.Parallel()
			p, err := grid.Generate(16, topology.DeriveSeed(7, "bench/grid:16", i))
			if err != nil {
				t.Fatal(err)
			}
			problem, read := steady.DirectProblem(p, 0)
			dense, err := lp.Solve(problem, nil)
			if err != nil {
				if !errors.Is(err, lp.ErrNotCertified) {
					t.Fatalf("dense solve: %v, want a solution or lp.ErrNotCertified", err)
				}
				return
			}
			if !dense.Feasible {
				return
			}
			if _, _, err := steady.Certify(p, 0, read(dense)); err != nil {
				t.Errorf("dense solve reported status %v on a point that violates LP (2): %v", dense.Status, err)
			}
		})
	}
}
