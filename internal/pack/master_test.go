package pack

import (
	"math/rand"
	"testing"
)

// TestWarmMasterRoundAllocations pins the cost model of a column-generation
// round — append one tree row, re-solve warm, read the prices and the
// weights: a fixed handful of allocations (the row, the solution, the
// duals), not a rebuilt LP.
func TestWarmMasterRoundAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, root, support := randomSupport(rng, 24, 120, 0)
	rate := make([]float64, p.NumLinks())
	for i := range rate {
		rate[i] = 1 + rng.Float64()
	}
	// Distinct trees, drawn ahead of the measurement through a master that
	// only dedupes them.
	const warmup, measured = 40, 20
	drawn := newMaster(support, rate, p.NumLinks())
	pr := newPricer(p, root, support)
	cost := make([]float64, len(support))
	for len(drawn.trees) < warmup+measured+1 {
		for i := range cost {
			cost[i] = rng.Float64()
		}
		tree, _, err := pr.price(cost)
		if err != nil {
			t.Fatal(err)
		}
		drawn.add(tree)
	}
	m := newMaster(support, rate, p.NumLinks())
	next := 0
	round := func() {
		if !m.add(drawn.trees[next]) {
			t.Fatal("fresh tree refused")
		}
		next++
		if _, _, err := m.solve(); err != nil {
			t.Fatal(err)
		}
		if next > 1 && !m.rv.LastWarm() {
			t.Fatal("master round fell back to a cold solve")
		}
		if _, err := m.weights(); err != nil {
			t.Fatal(err)
		}
	}
	for next < warmup {
		round()
	}
	allocs := testing.AllocsPerRun(measured, round)
	// Six are the round's own — the tree key, the sparse row, Solution and X,
	// the duals, the weights; the rest is amortized growth of the handle's
	// sparse columns and arenas (17 in all when this was written).
	if allocs > 24 {
		t.Fatalf("a warm master round allocates %.0f times, want <= 24", allocs)
	}
}
