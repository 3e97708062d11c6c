package scenarios

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/pack"
	"repro/internal/steady"
)

// TestSteadyRevisedAcrossRegistry holds the revised-simplex master LP to its
// consumers: on every registered scenario family, the solution must pass
// steady.Certify (its rates carry the throughput, its port prices bound it,
// both within 1e-6 relative), and it must decompose into a valid
// one-port-feasible spanning-tree packing.
func TestSteadyRevisedAcrossRegistry(t *testing.T) {
	const (
		source = 0
		seed   = 29
		relTol = 1e-6
	)
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			size := 8
			if size < s.MinSize {
				size = s.MinSize
			}
			p, err := s.Generate(size, seed)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			rev, err := steady.Solve(p, source, &steady.Options{GapTolerance: 1e-9})
			if err != nil {
				t.Fatalf("revised: %v", err)
			}
			assertCertified(t, p, source, rev, "revised")

			// The revised optimum must survive tree decomposition: the packed
			// trees reach the LP throughput and stay one-port feasible
			// (Packing.Validate checks rates, weights and occupations).
			pk, err := pack.Decompose(p, source, rev, nil)
			if err != nil {
				t.Fatalf("decompose revised solution: %v", err)
			}
			tol := relTol * math.Max(1, math.Abs(rev.Throughput))
			if err := pk.Validate(p, rev.EdgeRate, tol); err != nil {
				t.Errorf("revised packing: %v", err)
			}
			if gap := rev.Throughput - pk.Throughput; math.Abs(gap) > tol {
				t.Errorf("revised packing reaches %v, LP optimum %v (gap %v)", pk.Throughput, rev.Throughput, gap)
			}
		})
	}
}

// TestChurnRevisedSessionMatchesColdSolve replays every registry family
// through a 50-event churn trace with the warm session and checks each
// re-solved optimum against the bounds steady.Certify proves for a cold solve
// of a shadow platform, within 1e-6 relative — the warm-restart contract of
// the revised solver under row appends, row rewrites and platform deltas,
// against a certificate that trusts no LP.
func TestChurnRevisedSessionMatchesColdSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("differential churn sweep is not short")
	}
	opts := &steady.Options{GapTolerance: 1e-9}
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
			warm, err := dynamic.Run(p, 0, tr, dynamic.Config{Steady: opts})
			if err != nil {
				t.Fatal(err)
			}
			shadow := p.Clone()
			for i, ev := range tr.Events {
				if _, err := shadow.ApplyDelta(ev.Delta); err != nil {
					t.Fatalf("event %d (%v): %v", i, ev.Delta, err)
				}
				cold, err := steady.Solve(shadow, 0, opts)
				if err != nil {
					t.Fatalf("event %d (%v): cold: %v", i, ev.Delta, err)
				}
				label := fmt.Sprintf("event %d (%v)", i, ev.Delta)
				assertWithin(t, shadow, 0, cold, warm.Events[i].Optimal, label)
			}
		})
	}
}

// TestRevisedLargeScenarioSizes pins the scaling contract of the revised
// solver, ROADMAP item 2's "completes under budget or is not advertised": a
// large-tier cell must solve inside its stated wall budget (the solve runs
// under that deadline, so a relapse fails as a cancellation instead of
// hanging the suite) and its edge rates must carry the reported throughput to
// every destination. The budgets are some ten times the walls measured on a
// 2-core 2.1 GHz VM (in the comments), room for a loaded CI runner and the
// race detector. The n=256 cells run in the regular (non-short) tier;
// everything larger is gated behind BCAST_LARGE=1 — seconds of solving that
// belong to the bench/CI-artifact tier, not every test run. Platforms are the
// seed-7 registry instances. grid:1024 and ring:1024 are not in the tier
// because they are not advertised (see the registry entries).
func TestRevisedLargeScenarioSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-size revised solve is not short")
	}
	const source = 0
	cells := []struct {
		family string
		size   int
		budget time.Duration
	}{
		{NameClusters, 256, 5 * time.Second},   // 40 ms
		{NameGrid, 256, 5 * time.Second},       // 60 ms
		{NameTiers, 256, 5 * time.Second},      // 30 ms
		{NameClusters, 1024, 30 * time.Second}, // 1.0 s
		{NameGrid, 512, 15 * time.Second},      // 0.57 s
		{NameTiers, 512, 10 * time.Second},     // 0.09 s
		{NameTiers, 1024, 30 * time.Second},    // 1.4 s
		{NameRing, 512, 20 * time.Second},      // 0.84 s, 132 rounds
	}
	large := os.Getenv("BCAST_LARGE") != ""
	if !large {
		t.Log("set BCAST_LARGE=1 to run the n >= 512 tier")
	}
	for _, c := range cells {
		if c.size > 256 && !large {
			continue
		}
		label := fmt.Sprintf("%s:%d", c.family, c.size)
		s, err := Get(c.family)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Generate(c.size, 7)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.budget)
		rev, err := steady.NewSession(p, source, nil).ResolveContext(ctx)
		cancel()
		if err != nil {
			t.Errorf("%s: revised master inside its %v budget: %v", label, c.budget, err)
			continue
		}
		if !(rev.Throughput > 0) {
			t.Errorf("%s: degenerate throughput %v", label, rev.Throughput)
		}
		assertCertified(t, p, source, rev, "revised "+label)
	}
}
