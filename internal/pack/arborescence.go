package pack

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// edge is one support edge of the rate graph, carrying its platform link ID
// so chosen arborescences can be expressed as platform trees.
type edge struct {
	from, to int
	id       int // platform link ID
}

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
func maxBottleneckArborescence(p *platform.Platform, root int, residual []float64, support []edge, inTree []bool) *platform.Tree {
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
			if !inTree[e.from] || inTree[e.to] {
				continue
			}
			if r := residual[e.id]; r > bestCap {
				best, bestCap = i, r
			}
		}
		if best < 0 {
			return nil
		}
		e := support[best]
		tree.SetParent(e.to, e.from, e.id)
		inTree[e.to] = true
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

// costEps is the tolerance for cost comparisons in the min-incoming-edge
// selection: costs within costEps are ties, resolved by smallest link ID.
// Duals come out of the master LP with ~1e-9 noise, and stable tie-breaks
// on that noise are what keep the packing byte-identical across runs.
const costEps = 1e-12

// arc is a Chu-Liu/Edmonds working edge on the current level's node labels.
// idx is its index in the support (ascending in link ID, so ties broken on
// idx are ties broken on link ID); it survives every contraction.
type arc struct {
	from, to int
	idx      int
	cost     float64
}

// cycleEdge is a node of a contracted cycle, on the labels of the level that
// contracted it, with the support index of its cheapest incoming edge.
type cycleEdge struct{ node, idx int }

// pricer finds minimum-cost arborescences over one support graph, round after
// round: the support compressed onto the alive nodes is built once, and the
// Chu-Liu/Edmonds contraction runs on buffers the pricer keeps.
type pricer struct {
	p       *platform.Platform
	root    int
	support []edge
	n       int   // alive nodes: labels 0..n-1, the root is 0
	base    []arc // support on compressed labels, cost unset

	work    []arc // this round's edges, contracted in place level by level
	minIn   []int // node -> index into work of its cheapest incoming edge
	minCost []float64
	state   []uint8
	path    []int
	inCycle []bool
	relabel []int
	// One entry per contraction level, as end offsets into the two stacks:
	// the contracted cycle, and the edges that entered it (node is the cycle
	// node whose cheapest incoming edge such an edge would displace).
	cycles, enters []cycleEdge
	cycEnd, entEnd []int
	chosen         []bool // support index -> in the arborescence so far
	ids            []int
}

func newPricer(p *platform.Platform, root int, support []edge) *pricer {
	// Compress the alive nodes to 0..n-1 with the root first; dead nodes do
	// not participate.
	label := make([]int, p.NumNodes())
	for u := range label {
		label[u] = -1
	}
	label[root] = 0
	n := 1
	for u := range label {
		if u != root && p.NodeAlive(u) {
			label[u] = n
			n++
		}
	}
	pr := &pricer{
		p:       p,
		root:    root,
		support: support,
		n:       n,
		base:    make([]arc, len(support)),
		work:    make([]arc, len(support)),
		minIn:   make([]int, n),
		minCost: make([]float64, n),
		state:   make([]uint8, n),
		path:    make([]int, 0, n),
		inCycle: make([]bool, n),
		relabel: make([]int, n),
		chosen:  make([]bool, len(support)),
		ids:     make([]int, 0, n),
	}
	for i, e := range support {
		pr.base[i] = arc{from: label[e.from], to: label[e.to], idx: i}
	}
	return pr
}

// arborescence finds the minimum-total-cost arborescence rooted at the root
// spanning the alive nodes, cost[i] pricing support edge i, with the classic
// Chu-Liu/Edmonds contraction: pick each node's cheapest incoming edge; if
// the picks are acyclic they are the arborescence, otherwise the first cycle
// is contracted into a supernode (incoming costs reduced by the cycle edge
// they would displace) and the step repeats on the relabeled graph; the
// contractions are then undone innermost first. Ties (equal cost up to
// costEps) are broken by smallest link ID so the result — and with it the
// whole packing — is deterministic. It returns the chosen support indices
// (in a buffer the next call reuses) and their total cost, ok=false when some
// alive node is unreachable.
func (pr *pricer) arborescence(cost []float64) (ids []int, total float64, ok bool) {
	work := pr.work[:len(pr.base)]
	for i, a := range pr.base {
		a.cost = cost[i]
		work[i] = a
	}
	pr.cycles, pr.enters = pr.cycles[:0], pr.enters[:0]
	pr.cycEnd, pr.entEnd = pr.cycEnd[:0], pr.entEnd[:0]
	n, root := pr.n, 0
	for {
		minIn := pr.minIn[:n]
		for v := range minIn {
			minIn[v] = -1
		}
		for i, e := range work {
			if e.to == root || e.from == e.to {
				continue
			}
			cur := minIn[e.to]
			switch {
			case cur < 0:
				minIn[e.to] = i
			case e.cost < work[cur].cost-costEps:
				minIn[e.to] = i
			case e.cost <= work[cur].cost+costEps && e.idx < work[cur].idx:
				minIn[e.to] = i
			}
		}
		for v := 0; v < n; v++ {
			if v != root && minIn[v] < 0 {
				return nil, 0, false
			}
		}

		// Cycle detection over the chosen-parent graph.
		const (
			unseen = 0
			onPath = 1
			done   = 2
		)
		state := pr.state[:n]
		for v := range state {
			state[v] = unseen
		}
		state[root] = done
		var cycle []int
		for v := 0; v < n && cycle == nil; v++ {
			if state[v] != unseen {
				continue
			}
			path := pr.path[:0]
			u := v
			for state[u] == unseen {
				state[u] = onPath
				path = append(path, u)
				u = work[minIn[u]].from
			}
			if state[u] == onPath {
				// The cycle is the tail of path from the first occurrence
				// of u.
				for i, w := range path {
					if w == u {
						cycle = path[i:]
						break
					}
				}
			}
			for _, w := range path {
				state[w] = done
			}
		}

		if cycle == nil {
			ids = pr.ids[:0]
			for v := 0; v < n; v++ {
				if v != root {
					ids = append(ids, work[minIn[v]].idx)
				}
			}
			break
		}

		// Contract the cycle into one supernode and relabel: non-cycle nodes
		// keep their relative order (so labeling stays deterministic), the
		// cycle folds onto the last index.
		inCycle := pr.inCycle[:n]
		for v := range inCycle {
			inCycle[v] = false
		}
		for _, v := range cycle {
			inCycle[v] = true
			pr.minCost[v] = work[minIn[v]].cost
			pr.cycles = append(pr.cycles, cycleEdge{node: v, idx: work[minIn[v]].idx})
		}
		pr.cycEnd = append(pr.cycEnd, len(pr.cycles))
		relabel := pr.relabel[:n]
		super := 0
		for v := 0; v < n; v++ {
			if !inCycle[v] {
				relabel[v] = super
				super++
			}
		}
		kept := 0
		for _, e := range work {
			switch {
			case inCycle[e.from] && inCycle[e.to]:
				continue // internal to the cycle: drop
			case inCycle[e.to]:
				// Entering the cycle: cost reduced by the cycle edge it
				// would displace.
				pr.enters = append(pr.enters, cycleEdge{node: e.to, idx: e.idx})
				work[kept] = arc{from: relabel[e.from], to: super, idx: e.idx, cost: e.cost - pr.minCost[e.to]}
			case inCycle[e.from]:
				work[kept] = arc{from: super, to: relabel[e.to], idx: e.idx, cost: e.cost}
			default:
				work[kept] = arc{from: relabel[e.from], to: relabel[e.to], idx: e.idx, cost: e.cost}
			}
			kept++
		}
		pr.entEnd = append(pr.entEnd, len(pr.enters))
		work = work[:kept]
		root = relabel[root]
		n = super + 1
	}

	// Expand, innermost contraction first: exactly one chosen edge entered
	// the supernode (it has exactly one parent in the contracted
	// arborescence); keep every cycle edge except the one that edge
	// displaced.
	for _, i := range ids {
		pr.chosen[i] = true
	}
	ok = true
	for l := len(pr.cycEnd) - 1; l >= 0; l-- {
		cycStart, entStart := 0, 0
		if l > 0 {
			cycStart, entStart = pr.cycEnd[l-1], pr.entEnd[l-1]
		}
		entered := -1
		for _, e := range pr.enters[entStart:pr.entEnd[l]] {
			if pr.chosen[e.idx] {
				entered = e.node
				break
			}
		}
		if entered < 0 {
			ok = false
			break
		}
		for _, c := range pr.cycles[cycStart:pr.cycEnd[l]] {
			if c.node != entered {
				ids = append(ids, c.idx)
				pr.chosen[c.idx] = true
			}
		}
	}
	for _, i := range ids {
		pr.chosen[i] = false
		total += cost[i]
	}
	pr.ids = ids
	if !ok {
		return nil, 0, false
	}
	return ids, total, true
}

// price returns the cheapest arborescence under cost as a platform tree,
// with its total cost.
func (pr *pricer) price(cost []float64) (*platform.Tree, float64, error) {
	ids, total, ok := pr.arborescence(cost)
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
		if t.Parent[e.to] != -1 {
			return nil, fmt.Errorf("pack: arborescence gives node %d two parents", e.to)
		}
		t.SetParent(e.to, e.from, e.id)
	}
	if err := t.ValidateLive(pr.p); err != nil {
		return nil, fmt.Errorf("pack: priced arborescence invalid: %w", err)
	}
	return t, nil
}
