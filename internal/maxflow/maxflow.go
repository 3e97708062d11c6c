package maxflow

import (
	"fmt"
	"math"
)

// epsilon below which capacities and flows are treated as zero.
const eps = 1e-12

// adjEntry is one slot of the CSR adjacency: an arc leaving the row's node
// and the node it enters, side by side so that a scan reads the head's label
// without touching the capacity array.
type adjEntry struct {
	arc int32
	to  int32
}

// Network is a flow network with float64 capacities. Arcs are stored in
// pairs: arc 2k is the forward arc of user edge k and arc 2k+1 its reverse,
// so the partner of arc a is a^1. All scratch memory is owned by the handle;
// after the first flow nothing on the flow path allocates.
type Network struct {
	n    int
	to   []int32   // arc -> head node (the tail is to[arc^1])
	rcap []float64 // arc -> remaining capacity
	orig []float64 // edge -> capacity

	// CSR index over the arcs, rebuilt lazily after AddEdge: the arcs leaving
	// node u are adj[first[u]:first[u+1]], in increasing arc order (the order
	// in which AddEdge listed them).
	built bool
	first []int32
	adj   []adjEntry

	level []int32 // residual distance to the sink in the current phase, -1 = unlabeled
	iter  []int32 // node -> next adj slot to try in the current phase
	queue []int32 // BFS queue of the last labeling (also: the nodes to unlabel)
	cutq  []int32 // BFS queue of the min-cut searches
	path  []int32 // arcs of the current DFS path, source first

	touched []int32 // edges carrying flow since the last Reset
	dirty   []bool  // edge -> listed in touched

	// truncated is set by a flow that stopped on its bound, and by Reroute:
	// the residual network is then not that of a maximum flow and holds no
	// minimum cut.
	truncated bool
}

// New returns an empty network with n nodes.
func New(n int) *Network {
	if n < 0 {
		panic(fmt.Sprintf("maxflow: negative node count %d", n))
	}
	return &Network{n: n}
}

// NumNodes returns the number of nodes of the network.
func (nw *Network) NumNodes() int { return nw.n }

// NumEdges returns the number of user edges (not counting reverse arcs).
func (nw *Network) NumEdges() int { return len(nw.orig) }

// clampCapacity maps the capacities that carry nothing to zero.
func clampCapacity(c float64) float64 {
	if c < 0 || math.IsNaN(c) {
		return 0
	}
	return c
}

// AddEdge adds a directed edge with the given capacity and returns its edge
// ID. Negative and NaN capacities are treated as zero; capacities must be
// finite.
func (nw *Network) AddEdge(from, to int, capacity float64) int {
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		panic(fmt.Sprintf("maxflow: edge (%d, %d) out of range [0, %d)", from, to, nw.n))
	}
	capacity = clampCapacity(capacity)
	id := len(nw.orig)
	nw.to = append(nw.to, int32(to), int32(from))
	nw.rcap = append(nw.rcap, capacity, 0)
	nw.orig = append(nw.orig, capacity)
	nw.dirty = append(nw.dirty, false)
	nw.built = false
	return id
}

// SetCapacity resets the capacity of a user edge and clears any flow on it.
// Call Reset (or SetCapacity on every edge) before re-running MaxFlow with
// new capacities.
func (nw *Network) SetCapacity(edgeID int, capacity float64) {
	capacity = clampCapacity(capacity)
	nw.orig[edgeID] = capacity
	nw.rcap[2*edgeID] = capacity
	nw.rcap[2*edgeID+1] = 0
}

// Reset restores every edge to its original capacity, removing all flow. It
// visits only the edges the flows since the previous Reset pushed through.
func (nw *Network) Reset() {
	for _, id := range nw.touched {
		nw.rcap[2*id] = nw.orig[id]
		nw.rcap[2*id+1] = 0
		nw.dirty[id] = false
	}
	nw.touched = nw.touched[:0]
	nw.truncated = false
}

// Flow returns the amount of flow currently routed through a user edge
// (meaningful after MaxFlow).
func (nw *Network) Flow(edgeID int) float64 {
	f := nw.orig[edgeID] - nw.rcap[2*edgeID]
	if f < eps {
		return 0
	}
	return f
}

// build (re)computes the CSR index and sizes the scratch buffers. Residual
// capacities live in the arc arrays, so flow already routed survives.
func (nw *Network) build() {
	n, m := nw.n, len(nw.to)
	if nw.first == nil {
		nw.first = make([]int32, n+1)
		nw.level = make([]int32, n)
		for i := range nw.level {
			nw.level[i] = -1
		}
		nw.iter = make([]int32, n)
		nw.queue = make([]int32, 0, n)
		nw.cutq = make([]int32, 0, n)
		nw.path = make([]int32, 0, n)
	}
	for i := range nw.first {
		nw.first[i] = 0
	}
	for a := 0; a < m; a++ {
		nw.first[nw.to[a^1]+1]++
	}
	for u := 0; u < n; u++ {
		nw.first[u+1] += nw.first[u]
	}
	if cap(nw.adj) < m {
		nw.adj = make([]adjEntry, m)
	}
	nw.adj = nw.adj[:m]
	next := nw.iter // free between flows
	copy(next, nw.first[:n])
	for a := 0; a < m; a++ {
		u := nw.to[a^1]
		nw.adj[next[u]] = adjEntry{arc: int32(a), to: nw.to[a]}
		next[u]++
	}
	nw.built = true
}

// labelFromSink labels every node with its residual distance to t, breadth
// first from t over the arcs entering each node, and stops the moment s is
// labeled: nodes at s's distance or farther lie on no shortest s-t path. It
// reports whether s can reach t.
func (nw *Network) labelFromSink(s, t int32) bool {
	level, iter, first, adj, rcap := nw.level, nw.iter, nw.first, nw.adj, nw.rcap
	for _, v := range nw.queue {
		level[v] = -1
	}
	q := append(nw.queue[:0], t)
	level[t] = 0
	for head := 0; head < len(q); head++ {
		u := q[head]
		lv := level[u] + 1
		for _, e := range adj[first[u]:first[u+1]] {
			// e leaves u towards e.to; its partner enters u from e.to.
			if level[e.to] >= 0 || !(rcap[e.arc^1] > eps) {
				continue
			}
			level[e.to] = lv
			iter[e.to] = first[e.to]
			q = append(q, e.to)
			if e.to == s {
				nw.queue = q
				return true
			}
		}
	}
	nw.queue = q
	return false
}

// blockingFlow saturates the level graph of the current labeling with one
// iterative depth-first search and returns the grown total. A node's arcs
// are tried in CSR order from its iter slot; after an augmentation the
// search resumes at the tail of the first arc the push saturated, since a
// restart from s would only walk the untouched prefix of the path again. It
// stops early, reporting true, once total reaches limit. With exact set, an
// augmentation that would carry total past limit is shrunk to land on it and
// is the last one.
func (nw *Network) blockingFlow(s, t int32, total, limit float64, exact bool) (float64, bool) {
	level, iter, first, adj, rcap, to := nw.level, nw.iter, nw.first, nw.adj, nw.rcap, nw.to
	path := nw.path[:0]
	u := s
	for {
		if u == t {
			// Every arc on the path holds more than eps, so a plain
			// comparison is math.Min without its NaN and signed-zero cases.
			d := math.Inf(1)
			for _, a := range path {
				if c := rcap[a]; c < d {
					d = c
				}
			}
			capped := exact && total+d > limit
			if capped {
				d = limit - total
			}
			cut := len(path)
			for k := len(path) - 1; k >= 0; k-- {
				a := path[k]
				rcap[a] -= d
				rcap[a^1] += d
				if !(rcap[a] > eps) {
					cut = k
				}
				if id := a >> 1; !nw.dirty[id] {
					nw.dirty[id] = true
					nw.touched = append(nw.touched, id)
				}
			}
			total += d
			if capped || total >= limit {
				return total, true
			}
			u = to[path[cut]^1]
			path = path[:cut]
			continue
		}
		want := level[u] - 1
		i, end := iter[u], first[u+1]
		for ; i < end; i++ {
			if e := adj[i]; level[e.to] == want && rcap[e.arc] > eps {
				break
			}
		}
		iter[u] = i
		switch {
		case i < end:
			path = append(path, adj[i].arc)
			u = adj[i].to
		case u == s:
			return total, false
		default:
			// Dead end: back up one arc and move its tail past it.
			a := path[len(path)-1]
			path = path[:len(path)-1]
			u = to[a^1]
			iter[u]++
		}
	}
}

// MaxFlow computes the maximum flow from s to t with Dinic's algorithm and
// returns its value. The flow remains recorded in the network (see Flow and
// MinCutSourceSide); call Reset before computing a flow with fresh
// capacities.
func (nw *Network) MaxFlow(s, t int) float64 {
	return nw.MaxFlowBounded(s, t, math.Inf(1))
}

// MaxFlowBounded is MaxFlow for callers that only compare the flow value
// with a threshold: it stops augmenting the moment the value reaches limit.
//
// A return value below limit is the exact maximum flow, computed by the very
// augmentations MaxFlow performs, and the residual network holds its minimum
// cuts. Otherwise the return value is limit itself — never a sliver short of
// it: the bound only ever stops the search after a whole augmentation, it
// never shrinks one — the maximum flow is at least limit, and the residual
// network is that of a partial flow: the MinCut methods panic until the
// next Reset. A NaN limit never binds; a limit <= 0 binds before any
// augmentation.
func (nw *Network) MaxFlowBounded(s, t int, limit float64) float64 {
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n {
		panic(fmt.Sprintf("maxflow: source/sink (%d, %d) out of range [0, %d)", s, t, nw.n))
	}
	if 0 >= limit {
		nw.truncated = true
		return limit
	}
	nw.truncated = false
	if s == t {
		return 0
	}
	if !nw.built {
		nw.build()
	}
	var total float64
	for nw.labelFromSink(int32(s), int32(t)) {
		var stop bool
		if total, stop = nw.blockingFlow(int32(s), int32(t), total, limit, false); stop {
			nw.truncated = true
			return limit
		}
	}
	return total
}

// Reroute pushes exactly amount more flow from `from` to `to` on top of the
// flow already routed, and reports whether the residual network could carry
// it. It runs MaxFlowBounded's sink-labelled phases, except that the last
// augmentation is shrunk to land on amount and the search ends the moment it
// does: flow pushed past amount would have to come from `from` itself, which
// holds only what it was sent.
//
// Reroute moves the sink of a flow. If the network holds a flow of value F
// from s to `from` and Reroute(from, to, F) succeeds, it holds a flow of
// value F from s to `to` — the sum of two flows, the second one routed in
// the residual network of the first. Conversely, when some s-to flow has
// value at least F, scaling it down to F and subtracting the held flow
// leaves a from-to flow of value F in that residual network, so Reroute
// finds one (up to round-off and the eps floor on residual arcs, which can
// hide slivers of the held flow from the search). After a failure the
// network holds a maximum from-to flow on top of the previous one, a state
// that is no flow of anything useful: Reset before the next flow.
//
// A search that runs dry within rerouteRoundoff of amount also succeeds. An
// amount <= 0, or from == to, succeeds with nothing pushed; a NaN amount
// fails. Either way the residual network is not that of a maximum flow, so
// the MinCut methods panic until the next Reset.
func (nw *Network) Reroute(from, to int, amount float64) bool {
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		panic(fmt.Sprintf("maxflow: reroute (%d, %d) out of range [0, %d)", from, to, nw.n))
	}
	nw.truncated = true
	switch {
	case math.IsNaN(amount):
		return false
	case amount <= 0 || from == to:
		return true
	}
	if !nw.built {
		nw.build()
	}
	var total float64
	for nw.labelFromSink(int32(from), int32(to)) {
		var done bool
		if total, done = nw.blockingFlow(int32(from), int32(to), total, amount, true); done {
			return true
		}
	}
	return total >= amount*(1-rerouteRoundoff)
}

// rerouteRoundoff is the relative shortfall at which Reroute still succeeds
// once the residual network runs dry: the flow a previous Reroute delivered
// is the float sum of its augmentations, which can land a few ulps below
// its amount (0.1 + (1.95 − 0.1) < 1.95), and when `from` can only pass on
// what it received that is all there is to move. 1e-13 is about 450 ulps;
// a chain of k hops gives up at most k·1e-13 of its value this way.
const rerouteRoundoff = 1e-13

// MinCutSourceSide returns, after MaxFlow(s, t), the set of nodes reachable
// from s in the residual network. The edges leaving this set form a minimum
// s-t cut.
func (nw *Network) MinCutSourceSide(s int) []bool {
	return nw.MinCutSourceSideInto(s, make([]bool, nw.n))
}

// MinCutSourceSideInto is MinCutSourceSide writing into side, which must
// hold one entry per node; it returns side.
func (nw *Network) MinCutSourceSideInto(s int, side []bool) []bool {
	side = side[:nw.n]
	for i := range side {
		side[i] = false
	}
	if s < 0 || s >= nw.n {
		return side
	}
	nw.beforeCut()
	q := append(nw.cutq[:0], int32(s))
	side[s] = true
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, e := range nw.adj[nw.first[u]:nw.first[u+1]] {
			if !side[e.to] && nw.rcap[e.arc] > eps {
				side[e.to] = true
				q = append(q, e.to)
			}
		}
	}
	return side
}

// MinCutSinkSide returns, after MaxFlow(s, t), the complement of the set of
// nodes that can still reach t in the residual network. The edges leaving
// this set also form a minimum s-t cut (in general a different one from
// MinCutSourceSide), which is useful to generate several violated
// constraints per separation round in cutting-plane algorithms.
func (nw *Network) MinCutSinkSide(t int) []bool {
	return nw.MinCutSinkSideInto(t, make([]bool, nw.n))
}

// MinCutSinkSideInto is MinCutSinkSide writing into side, which must hold
// one entry per node; it returns side.
func (nw *Network) MinCutSinkSideInto(t int, side []bool) []bool {
	side = side[:nw.n]
	if t < 0 || t >= nw.n {
		for i := range side {
			side[i] = false
		}
		return side
	}
	// Reverse reachability: v can reach t if some residual arc v -> u exists
	// with u already able to reach t. side[v] stays true until v is reached.
	for i := range side {
		side[i] = true
	}
	nw.beforeCut()
	q := append(nw.cutq[:0], int32(t))
	side[t] = false
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, e := range nw.adj[nw.first[u]:nw.first[u+1]] {
			// e leaves u; its partner is the residual arc e.to -> u.
			if side[e.to] && nw.rcap[e.arc^1] > eps {
				side[e.to] = false
				q = append(q, e.to)
			}
		}
	}
	return side
}

// beforeCut guards the min-cut searches against the one misuse that yields
// a wrong answer instead of a crash, and makes sure the CSR index exists.
func (nw *Network) beforeCut() {
	if nw.truncated {
		panic("maxflow: minimum cut requested after a flow that stopped on its bound or a Reroute")
	}
	if !nw.built {
		nw.build()
	}
}

// CutEdges returns the user-edge IDs that cross the given cut from the
// source side to the sink side (i.e. the edges whose capacities sum to the
// cut capacity).
func (nw *Network) CutEdges(sourceSide []bool) []int {
	var ids []int
	for id := 0; id < nw.NumEdges(); id++ {
		// The forward arc 2*id enters to[2*id]; its reverse arc points back
		// to the tail node.
		if sourceSide[nw.to[2*id+1]] && !sourceSide[nw.to[2*id]] {
			ids = append(ids, id)
		}
	}
	return ids
}

// CutCapacity returns the total original capacity of the edges crossing the
// cut from the source side to the sink side.
func (nw *Network) CutCapacity(sourceSide []bool) float64 {
	var total float64
	for _, id := range nw.CutEdges(sourceSide) {
		total += nw.orig[id]
	}
	return total
}
