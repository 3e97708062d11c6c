package pack

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/platform"
)

// maxBottleneckArborescence grows the arborescence rooted at root that
// maximizes the minimum residual capacity over its edges: Prim-style
// widest-path growth, at each step taking the highest-capacity support edge
// crossing the cut (ties broken by smallest link ID, which the ascending
// iteration order provides). Returns nil when some alive node is not
// reachable from root through positive-residual support edges. inTree is
// scratch of p.NumNodes() entries, reused across peels.
//
// The greedy choice is exact for the bottleneck objective on directed
// graphs: if every alive node is reachable using only edges of capacity at
// least t, then any cut between the grown set and the rest is crossed by
// such an edge, so the maximum crossing edge is never below the optimal
// threshold.
func maxBottleneckArborescence(p *platform.Platform, root int, residual []float64, support []graph.Edge, inTree []bool) *platform.Tree {
	for i := range inTree {
		inTree[i] = false
	}
	inTree[root] = true
	need := p.NumAliveNodes() - 1
	tree := platform.NewTree(p.NumNodes(), root)
	for added := 0; added < need; added++ {
		best := -1
		bestCap := 0.0
		for i, e := range support {
			if !inTree[e.From] || inTree[e.To] {
				continue
			}
			if r := residual[e.ID]; r > bestCap {
				best, bestCap = i, r
			}
		}
		if best < 0 {
			return nil
		}
		e := support[best]
		tree.SetParent(e.To, e.From, e.ID)
		inTree[e.To] = true
	}
	return tree
}

// bottleneck returns the minimum residual capacity over the tree's edges.
func bottleneck(tree *platform.Tree, residual []float64) float64 {
	b := math.Inf(1)
	for _, id := range tree.ParentLink {
		if id >= 0 && residual[id] < b {
			b = residual[id]
		}
	}
	return b
}

// pricer finds minimum-cost arborescences of one support graph, round after
// round (graph.MinArborescence), and assembles them as platform trees. The
// support is in link-ID order, so pricing ties go to the smaller link ID.
type pricer struct {
	p       *platform.Platform
	root    int
	support []graph.Edge
	arb     *graph.MinArborescence
}

func newPricer(p *platform.Platform, root int, support []graph.Edge) *pricer {
	return &pricer{p: p, root: root, support: support, arb: graph.NewMinArborescence(p.NumNodes(), root, p.NodeAlive, support)}
}

// price returns the cheapest arborescence under cost as a platform tree,
// with its total cost.
func (pr *pricer) price(cost []float64) (*platform.Tree, float64, error) {
	ids, total, ok := pr.arb.Solve(cost)
	if !ok {
		return nil, 0, fmt.Errorf("%w: support graph carries no arborescence", ErrNotPacked)
	}
	t, err := pr.tree(ids)
	return t, total, err
}

// tree assembles a platform tree from chosen support indices.
func (pr *pricer) tree(ids []int) (*platform.Tree, error) {
	t := platform.NewTree(pr.p.NumNodes(), pr.root)
	for _, i := range ids {
		e := pr.support[i]
		if t.Parent[e.To] != -1 {
			return nil, fmt.Errorf("pack: arborescence gives node %d two parents", e.To)
		}
		t.SetParent(e.To, e.From, e.ID)
	}
	if err := t.ValidateLive(pr.p); err != nil {
		return nil, fmt.Errorf("pack: priced arborescence invalid: %w", err)
	}
	return t, nil
}
