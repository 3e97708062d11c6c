package steady_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/scenarios"
	"repro/internal/steady"
	"repro/internal/topology"
)

// TestSolveDirectNeverReturnsAnUncertifiedOptimum replays the six grid:16
// instances on which the dense simplex ends "optimal" on a point that
// violates LP (2), and which SolveDirect used to report as the optimum:
// throughput 104.000 where the three cutting-plane masters agree on 89.016
// (instance 2), 92.331 where they find 92.552 (instance 3), the right
// throughput on rates with a one-port occupation of 2.7 (instance 4). Each
// instance must now either fail with ErrLPFailed or agree with the
// cutting-plane optimum.
//
// A dense solve of this LP is 1400–4800 pivots on a 1000 x 1800 tableau —
// 1.5–5 s each, twenty times that under the race detector — so the replay
// runs only with BCAST_LARGE=1, as a CI step does; the certificate itself is
// unit-tested by TestCertifyDirect on every run.
func TestSolveDirectNeverReturnsAnUncertifiedOptimum(t *testing.T) {
	if os.Getenv("BCAST_LARGE") == "" {
		t.Skip("set BCAST_LARGE=1 to replay the six dense solves")
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
			cut, err := steady.Solve(p, 0, &steady.Options{Revised: true})
			if err != nil {
				t.Fatalf("cutting plane: %v", err)
			}
			direct, err := steady.SolveDirect(p, 0, nil)
			if err != nil {
				if !errors.Is(err, steady.ErrLPFailed) {
					t.Fatalf("SolveDirect failed with %v, want ErrLPFailed", err)
				}
				t.Logf("rejected: %v", err)
				return
			}
			if diff := math.Abs(direct.Throughput - cut.Throughput); diff > 1e-5*cut.Throughput {
				t.Errorf("SolveDirect certified %v, cutting plane %v", direct.Throughput, cut.Throughput)
			}
		})
	}
}
