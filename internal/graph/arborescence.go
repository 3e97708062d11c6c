package graph

// ArborescenceCostEps is MinArborescence's tie tolerance: costs within it
// tie, and ties go to the smaller support index, so that ~1e-9 noise in LP
// duals cannot change the choice from run to run.
const ArborescenceCostEps = 1e-12

// arc is a working arc on the current level's node labels; idx, its support
// index, survives every contraction.
type arc struct {
	from, to int
	idx      int
	cost     float64
}

// cycleArc is a node of a contracted cycle, on the labels of the level that
// contracted it, with the support index of its cheapest incoming arc.
type cycleArc struct{ node, idx int }

// MinArborescence finds minimum-cost arborescences over one support graph,
// round after round, on buffers it keeps. It is not safe for concurrent use.
type MinArborescence struct {
	n    int   // spanned nodes: labels 0..n-1, the root is 0
	base []arc // support on compressed labels, cost unset

	work    []arc // this round's arcs, contracted in place level by level
	minIn   []int // node -> index into work of its cheapest incoming arc
	minCost []float64
	state   []uint8
	path    []int
	inCycle []bool
	relabel []int
	// One entry per contraction level, as end offsets into the two stacks:
	// the contracted cycle, and the arcs that entered it (node is the cycle
	// node whose cheapest incoming arc such an arc would displace).
	cycles, enters []cycleArc
	cycEnd, entEnd []int
	chosen         []bool // support index -> in the arborescence so far
	ids            []int
}

// NewMinArborescence prepares the arborescences rooted at root that span the
// nodes u < numNodes with span(u) true (the root always), over the support
// edges (From and To are read), each of which must join two spanned nodes.
func NewMinArborescence(numNodes, root int, span func(u int) bool, support []Edge) *MinArborescence {
	label := make([]int, numNodes) // spanned nodes compressed, the root first
	n := 1
	for u := range label {
		label[u] = -1
		if u != root && span(u) {
			label[u] = n
			n++
		}
	}
	label[root] = 0
	ma := &MinArborescence{
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
	for i, a := range support {
		ma.base[i] = arc{from: label[a.From], to: label[a.To], idx: i}
	}
	return ma
}

// Solve finds the minimum-total-cost arborescence, cost[i] pricing support
// edge i, by Chu-Liu/Edmonds: pick each node's cheapest incoming arc; if the
// picks are acyclic they are the arborescence, otherwise the first cycle is
// contracted into a supernode (entering costs reduced by the cycle arc they
// would displace) and the step repeats; the contractions are then undone
// innermost first. It returns the chosen support indices (in a buffer the
// next call reuses) and their total cost; ok=false when some spanned node is
// unreachable.
func (ma *MinArborescence) Solve(cost []float64) (ids []int, total float64, ok bool) {
	work := ma.work[:len(ma.base)]
	for i, a := range ma.base {
		a.cost = cost[i]
		work[i] = a
	}
	ma.cycles, ma.enters = ma.cycles[:0], ma.enters[:0]
	ma.cycEnd, ma.entEnd = ma.cycEnd[:0], ma.entEnd[:0]
	n, root := ma.n, 0
	for {
		minIn := ma.minIn[:n]
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
			case e.cost < work[cur].cost-ArborescenceCostEps:
				minIn[e.to] = i
			case e.cost <= work[cur].cost+ArborescenceCostEps && e.idx < work[cur].idx:
				minIn[e.to] = i
			}
		}
		for v := 0; v < n; v++ {
			if v != root && minIn[v] < 0 {
				return nil, 0, false
			}
		}

		// Cycle detection over the chosen-parent graph.
		const unseen, onPath, done = 0, 1, 2
		state := ma.state[:n]
		clear(state)
		state[root] = done
		var cycle []int
		for v := 0; v < n && cycle == nil; v++ {
			if state[v] != unseen {
				continue
			}
			path := ma.path[:0]
			u := v
			for state[u] == unseen {
				state[u] = onPath
				path = append(path, u)
				u = work[minIn[u]].from
			}
			if state[u] == onPath {
				// The cycle is path's tail from the first occurrence of u.
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
			ids = ma.ids[:0]
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
		inCycle := ma.inCycle[:n]
		clear(inCycle)
		for _, v := range cycle {
			inCycle[v] = true
			ma.minCost[v] = work[minIn[v]].cost
			ma.cycles = append(ma.cycles, cycleArc{node: v, idx: work[minIn[v]].idx})
		}
		ma.cycEnd = append(ma.cycEnd, len(ma.cycles))
		relabel := ma.relabel[:n]
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
				// Entering the cycle: cost reduced by the cycle arc it
				// would displace.
				ma.enters = append(ma.enters, cycleArc{node: e.to, idx: e.idx})
				work[kept] = arc{from: relabel[e.from], to: super, idx: e.idx, cost: e.cost - ma.minCost[e.to]}
			case inCycle[e.from]:
				work[kept] = arc{from: super, to: relabel[e.to], idx: e.idx, cost: e.cost}
			default:
				work[kept] = arc{from: relabel[e.from], to: relabel[e.to], idx: e.idx, cost: e.cost}
			}
			kept++
		}
		ma.entEnd = append(ma.entEnd, len(ma.enters))
		work = work[:kept]
		root = relabel[root]
		n = super + 1
	}

	// Expand, innermost contraction first: exactly one chosen arc entered
	// the supernode (it has exactly one parent in the contracted
	// arborescence); keep every cycle arc except the one that arc
	// displaced.
	for _, i := range ids {
		ma.chosen[i] = true
	}
	ok = true
	for l := len(ma.cycEnd) - 1; l >= 0; l-- {
		cycStart, entStart := 0, 0
		if l > 0 {
			cycStart, entStart = ma.cycEnd[l-1], ma.entEnd[l-1]
		}
		entered := -1
		for _, e := range ma.enters[entStart:ma.entEnd[l]] {
			if ma.chosen[e.idx] {
				entered = e.node
				break
			}
		}
		if entered < 0 {
			ok = false
			break
		}
		for _, c := range ma.cycles[cycStart:ma.cycEnd[l]] {
			if c.node != entered {
				ids = append(ids, c.idx)
				ma.chosen[c.idx] = true
			}
		}
	}
	for _, i := range ids {
		ma.chosen[i] = false
		total += cost[i]
	}
	ma.ids = ids
	if !ok {
		return nil, 0, false
	}
	return ids, total, true
}
