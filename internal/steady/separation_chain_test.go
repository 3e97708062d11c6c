package steady_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/scenarios"
	"repro/internal/steady"
)

// TestChainedSeparationMatchesOracle replays the cold solve of every registry
// family at its default sizes, plus the separation-bound large cells, twice
// in lockstep — once separating with the production step (the chained flow,
// fresh max-flows where it does not decide), once with the per-destination
// oracle (a bounded max-flow per destination) — and checks every round: the
// same violated destinations, the same number of new master rows, the same
// new cut partitions in the same order, and bit-identical master solutions
// in the next round. The replay itself must
// reproduce Solve's rounds, cuts and throughput bits, and each round must
// decide every destination exactly once. Source 0, seed 7.
func TestChainedSeparationMatchesOracle(t *testing.T) {
	const (
		source = 0
		seed   = 7
	)
	type cell struct {
		family string
		size   int
	}
	var cells []cell
	for _, s := range scenarios.All() {
		for _, size := range s.DefaultSizes {
			cells = append(cells, cell{s.Name, size})
		}
	}
	cells = append(cells,
		cell{scenarios.NameRing, 256},
		cell{scenarios.NameRing, 512},
		cell{scenarios.NameChain, 512},
		cell{scenarios.NameClusters, 512},
	)
	for _, c := range cells {
		name := fmt.Sprintf("%s:%d", c.family, c.size)
		t.Run(name, func(t *testing.T) {
			s, err := scenarios.Get(c.family)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.Generate(c.size, seed)
			if err != nil {
				t.Fatal(err)
			}
			check := func(round int, got, want steady.SeparationOutcome) {
				t.Helper()
				if !slices.Equal(got.Violated, want.Violated) {
					t.Fatalf("round %d: violated destinations differ from the oracle's", round)
				}
				if got.Added != want.Added || !slices.Equal(got.Pooled, want.Pooled) {
					t.Fatalf("round %d: %d new rows and %d new partitions, oracle %d and %d (or another order)", round, got.Added, len(got.Pooled), want.Added, len(want.Pooled))
				}
			}
			replay, err := steady.ReplaySeparation(p, source, check)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := steady.Solve(p, source, nil)
			if err != nil {
				t.Fatal(err)
			}
			if replay.Rounds != sol.Rounds || replay.Cuts != sol.Cuts || math.Float64bits(replay.Throughput) != math.Float64bits(sol.Throughput) {
				t.Fatalf("replay ran %d rounds, %d cuts, throughput %v; Solve %d, %d, %v",
					replay.Rounds, replay.Cuts, replay.Throughput, sol.Rounds, sol.Cuts, sol.Throughput)
			}
			if replay.MaxFlows != sol.MaxFlows || replay.Certified != sol.Certified {
				t.Fatalf("replay counted %d flows + %d certified, Solve %d + %d", replay.MaxFlows, replay.Certified, sol.MaxFlows, sol.Certified)
			}
			if want := sol.Rounds * (p.NumAliveNodes() - 1); sol.MaxFlows+sol.Certified != want {
				t.Fatalf("%d flows + %d certified over %d rounds, want %d decisions", sol.MaxFlows, sol.Certified, sol.Rounds, want)
			}
			t.Logf("%d rounds, %d fresh flows, %d certified", sol.Rounds, sol.MaxFlows, sol.Certified)
		})
	}
}

// TestChainedSeparationDoesNotAllocate pins the allocation contract of the
// separation step: its certified/violated sets and cut buffer belong to the
// session, so a warm step — chain pass, fresh flows, minimum cuts of the
// violated destinations — allocates nothing. The rates are ring:64's
// optimum with the links into node 32 cut, which leaves that destination
// violated and the others certified.
func TestChainedSeparationDoesNotAllocate(t *testing.T) {
	s, err := scenarios.Get(scenarios.NameRing)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Generate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := steady.Solve(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rates := append([]float64(nil), sol.EdgeRate...)
	for _, id := range p.InLinkIDs(32) {
		rates[id] = 0
	}
	step := steady.ChainedSeparation(p, 0, rates, sol.Throughput*(1-1e-7))
	if flows, certified := step(); flows == 0 || certified == 0 {
		t.Fatalf("fixture should exercise both passes: %d fresh flows, %d certified", flows, certified)
	}
	if allocs := testing.AllocsPerRun(5, func() { step() }); allocs != 0 {
		t.Fatalf("a warm separation step allocates %v times", allocs)
	}
}
