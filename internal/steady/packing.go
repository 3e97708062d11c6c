package steady

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// PackedTree is one weighted broadcast tree of a packing: the tree carries
// weight units of throughput, i.e. a fraction weight/Throughput of the
// slices flow down this tree in the steady state.
type PackedTree struct {
	Tree   *platform.Tree `json:"tree"`
	Weight float64        `json:"weight"`
}

// Packing is a weighted spanning-tree decomposition of a steady-state
// solution's optimal edge rates n(u,v): k trees with positive weights whose
// combined rate achieves the LP throughput (Section 4.1's weighted tree
// packing — the primal witness that the LP bound is reached by an actual
// broadcast schedule). The summed per-link packed rates never exceed the
// solution's edge rates, so every capacity and one-port occupation bound the
// LP certified carries over to the packing.
//
// A Packing is produced by internal/pack (which owns the decomposition
// algorithm); it lives here so Solution can expose it without an import
// cycle.
type Packing struct {
	// Source is the broadcast source all trees are rooted at.
	Source int `json:"source"`
	// Trees are the packed trees, every weight strictly positive. The order
	// is deterministic: peel-phase trees first (in peel order), then priced
	// columns (in pricing order), each keeping only positive final weights.
	Trees []PackedTree `json:"trees"`
	// Throughput is the combined packed rate, the sum of the weights. It
	// matches LPThroughput within the decomposition tolerance unless
	// Truncated.
	Throughput float64 `json:"throughput"`
	// LPThroughput is the LP-optimal throughput the packing was decomposed
	// from (Solution.Throughput).
	LPThroughput float64 `json:"lpThroughput"`
	// Peeled and Priced count the trees contributed by the greedy
	// max-bottleneck peel phase and by restricted-master column generation;
	// their sum can exceed len(Trees) because trees whose final master
	// weight is zero are dropped. Both are deterministic decomposition-cost
	// measures.
	Peeled int `json:"peeled"`
	Priced int `json:"priced"`
	// Truncated reports that the optimal decomposition needed more trees
	// than the requested cap and the lightest ones were dropped: Throughput
	// is then the honest (smaller) sum of the surviving weights.
	Truncated bool `json:"truncated,omitempty"`
	// Rounds is the number of restricted-master solves column generation
	// ran and MasterPivots the simplex pivots they took in total; WallNanos
	// is the wall-clock time of the whole decomposition. The two counts are
	// deterministic. None of the three is marshaled: like
	// Solution.LPWallNanos they feed traces and benchmarks, and the plan
	// bytes stay what they were.
	Rounds       int   `json:"-"`
	MasterPivots int   `json:"-"`
	WallNanos    int64 `json:"-"`
}

// NumTrees returns the number of packed trees.
func (pk *Packing) NumTrees() int { return len(pk.Trees) }

// PackedRates returns the summed per-link packed rate: for each link ID the
// total weight of the packed trees using it. The slice has numLinks entries.
func (pk *Packing) PackedRates(numLinks int) []float64 {
	rates := make([]float64, numLinks)
	for _, pt := range pk.Trees {
		for _, id := range pt.Tree.LinkIDs() {
			rates[id] += pt.Weight
		}
	}
	return rates
}

// Validate checks the packing's invariants against the platform and the
// solution edge rates it was decomposed from, with tolerance tol:
//
//   - every tree is rooted at Source and spans the alive nodes over live
//     links (platform.Tree.ValidateLive);
//   - every weight is strictly positive and the weights sum to Throughput;
//   - the summed per-link packed rates never exceed the solution's edge
//     rates n(u,v);
//   - no node's one-port occupation (incoming and outgoing separately, as in
//     the steady LP) exceeds 1 under the packed rates.
//
// edgeRate must be the Solution.EdgeRate the packing was decomposed from
// (len == platform.NumLinks()).
func (pk *Packing) Validate(p *platform.Platform, edgeRate []float64, tol float64) error {
	if len(edgeRate) != p.NumLinks() {
		return fmt.Errorf("steady: packing validate: %d edge rates for %d links", len(edgeRate), p.NumLinks())
	}
	sum := 0.0
	for i, pt := range pk.Trees {
		if pt.Tree == nil {
			return fmt.Errorf("steady: packed tree %d is nil", i)
		}
		if pt.Tree.Root != pk.Source {
			return fmt.Errorf("steady: packed tree %d rooted at %d, want source %d", i, pt.Tree.Root, pk.Source)
		}
		if err := pt.Tree.ValidateLive(p); err != nil {
			return fmt.Errorf("steady: packed tree %d: %w", i, err)
		}
		if !(pt.Weight > 0) || math.IsInf(pt.Weight, 0) || math.IsNaN(pt.Weight) {
			return fmt.Errorf("steady: packed tree %d has non-positive weight %v", i, pt.Weight)
		}
		sum += pt.Weight
	}
	if math.Abs(sum-pk.Throughput) > tol {
		return fmt.Errorf("steady: packed weights sum to %v, recorded throughput %v", sum, pk.Throughput)
	}
	rates := pk.PackedRates(p.NumLinks())
	for id, r := range rates {
		if r > edgeRate[id]+tol {
			l := p.Link(id)
			return fmt.Errorf("steady: packed rate %v on link %d (%d->%d) exceeds LP edge rate %v", r, id, l.From, l.To, edgeRate[id])
		}
	}
	for u := 0; u < p.NumNodes(); u++ {
		if !p.NodeAlive(u) {
			continue
		}
		for dir, ids := range [][]int{p.InLinkIDs(u), p.OutLinkIDs(u)} {
			occ := 0.0
			for _, id := range ids {
				if p.LinkLive(id) {
					occ += p.SliceTime(id) * rates[id]
				}
			}
			if occ > 1+tol {
				side := "incoming"
				if dir == 1 {
					side = "outgoing"
				}
				return fmt.Errorf("steady: node %d %s one-port occupation %v exceeds 1 under the packing", u, side, occ)
			}
		}
	}
	return nil
}
