package steady_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/maxflow"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/steady"
	"repro/internal/topology"
)

// poolCell is one platform of the repo benchmark's pinned pool
// (bench/workloads.go: pool seed 7, instance-derived seeds); inst < 0 is the
// plain registry platform at seed 7.
type poolCell struct {
	family string
	size   int
	inst   int
}

func (c poolCell) String() string {
	if c.inst < 0 {
		return fmt.Sprintf("%s:%d", c.family, c.size)
	}
	return fmt.Sprintf("%s:%d#%d", c.family, c.size, c.inst)
}

func (c poolCell) generate(tb testing.TB) *platform.Platform {
	tb.Helper()
	s, err := scenarios.Get(c.family)
	if err != nil {
		tb.Fatal(err)
	}
	seed := int64(7)
	if c.inst >= 0 {
		seed = topology.DeriveSeed(7, fmt.Sprintf("bench/%s:%d", c.family, c.size), c.inst)
	}
	p, err := s.Generate(c.size, seed)
	if err != nil {
		tb.Fatalf("%v: generate: %v", c, err)
	}
	return p
}

// lpBoundCells are the nine cells of the benchmark's cold-lp workload: cyclic
// and dense platforms whose masters are dual degenerate enough that, before
// the dual phase was perturbed, 78 of their 87 master solves were cold
// fallbacks.
var lpBoundCells = []poolCell{
	{"random-dense", 80, 0},
	{"grid", 81, 0}, {"grid", 81, 3}, {"grid", 81, 1},
	{"random-dense", 64, 0}, {"random-dense", 64, 1},
	{"random-sparse", 96, 4},
	{"tiers", 224, 0},
	{"grid", 64, 3},
}

// assertCertified checks a solution the way the benchmark verifies a plan,
// independently of any LP solver: the edge rates respect every one-port
// occupation (<= 1+1e-6) and carry the reported throughput to every
// destination (max-flow >= TP·(1−1e-6)), so the throughput is achievable, and
// it does not exceed the master's upper bound.
func assertCertified(t *testing.T, p *platform.Platform, source int, sol *steady.Solution, label string) {
	t.Helper()
	for u := 0; u < p.NumNodes(); u++ {
		for _, ids := range [][]int{p.InLinkIDs(u), p.OutLinkIDs(u)} {
			var busy float64
			for _, id := range ids {
				busy += sol.EdgeRate[id] * p.SliceTime(id)
			}
			if busy > 1+1e-6 {
				t.Errorf("%s: node %d is occupied %v of the time", label, u, busy)
			}
		}
	}
	nw := maxflow.New(p.NumNodes())
	for id := 0; id < p.NumLinks(); id++ {
		l := p.Link(id)
		nw.AddEdge(l.From, l.To, sol.EdgeRate[id])
	}
	for w := 0; w < p.NumNodes(); w++ {
		if w == source {
			continue
		}
		nw.Reset()
		if flow := nw.MaxFlow(source, w); flow < sol.Throughput*(1-1e-6) {
			t.Errorf("%s: destination %d receives %v < reported throughput %v", label, w, flow, sol.Throughput)
		}
	}
	if !(sol.Throughput > 0) || sol.Throughput > sol.UpperBound*(1+1e-9) {
		t.Errorf("%s: throughput %v outside (0, upper bound %v]", label, sol.Throughput, sol.UpperBound)
	}
}

// TestFormerKnownFailureGrid100SolvesInsideBenchDeadline replays the
// benchmark's cold-lp known failure: grid:100 instance 1 under a 1.5 s
// deadline. It was never a big LP (360 links, ten rounds): two warm attempts
// stalled on zero-length dual steps, the warm-disable latch turned every later
// round cold, and the deadline canceled the solve. It must now solve well
// inside the deadline with the first master solve as its only cold one, and
// certify. (The dense reference cannot serve as its oracle: it pivots for over
// two minutes on this instance and ends on a point lp.Solve refuses to certify;
// TestColdLPCellsSolveColdOnce compares the cells where it is tractable.)
func TestFormerKnownFailureGrid100SolvesInsideBenchDeadline(t *testing.T) {
	c := poolCell{"grid", 100, 1}
	p := c.generate(t)
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	sol, err := steady.NewSession(p, 0, nil).ResolveContext(ctx)
	if err != nil {
		t.Fatalf("%v under the benchmark's 1.5 s deadline: %v", c, err)
	}
	if sol.ColdSolves != 1 {
		t.Errorf("%v: %d cold master solves over %d rounds, want the first one only", c, sol.ColdSolves, sol.Rounds)
	}
	assertCertified(t, p, 0, sol, c.String())
}

// TestColdLPCellsSolveColdOnce is the no-fallback tier: on every cold-lp cell
// of the benchmark and on the three n >= 128 cells past the old convergence
// cliff, the revised master re-solves every round warm — one cold solve per
// plan, the first — and the result certifies. The two cells the dense
// reference (SolveReference) finishes in under a second (the others take 2 to
// 14 s) are also compared with it, within 1e-6 (skipped with -short).
func TestColdLPCellsSolveColdOnce(t *testing.T) {
	cells := append([]poolCell{}, lpBoundCells...)
	cells = append(cells, poolCell{"grid", 256, -1}, poolCell{"tiers", 256, -1}, poolCell{"random-sparse", 128, -1})
	denseTractable := map[string]bool{"grid:81#3": true, "random-dense:64#0": true}
	for _, c := range cells {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			p := c.generate(t)
			sol, err := steady.Solve(p, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.ColdSolves != 1 {
				t.Errorf("%d cold master solves over %d rounds (%d warm + %d cold pivots), want the first one only",
					sol.ColdSolves, sol.Rounds, sol.WarmPivots, sol.ColdPivots)
			}
			assertCertified(t, p, 0, sol, c.String())
			if testing.Short() || !denseTractable[c.String()] {
				return
			}
			dense, err := steady.SolveReference(p, 0, nil)
			if err != nil {
				t.Fatalf("dense reference: %v", err)
			}
			if rel := math.Abs(sol.Throughput-dense.Throughput) / math.Max(dense.Throughput, 1e-12); rel > 1e-6 {
				t.Errorf("revised %v vs dense reference %v (rel %v)", sol.Throughput, dense.Throughput, rel)
			}
		})
	}
}
