package pack

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/platform"
)

// randomSupport draws a platform of n nodes — a bidirectional ring, so an
// arborescence exists from any root, plus chords, parallel links included —
// with up to dead crashed nodes bridged over, and returns it with its live
// links as a support.
func randomSupport(rng *rand.Rand, n, chords, dead int) (*platform.Platform, int, []graph.Edge) {
	p := platform.New(n)
	cost := model.AffineCost{PerUnit: 1}
	for u := 0; u < n; u++ {
		p.MustAddLink(u, (u+1)%n, cost)
		p.MustAddLink((u+1)%n, u, cost)
	}
	for c := 0; c < chords; c++ {
		if from, to := rng.Intn(n), rng.Intn(n); from != to {
			p.MustAddLink(from, to, cost)
		}
	}
	root := rng.Intn(n)
	for d := 0; d < dead && n >= 4; d++ {
		v := rng.Intn(n)
		if v == root || !p.NodeAlive(v) || !p.NodeAlive((v+1)%n) || !p.NodeAlive((v+n-1)%n) {
			continue
		}
		p.MustAddLink((v+n-1)%n, (v+1)%n, cost)
		p.MustAddLink((v+1)%n, (v+n-1)%n, cost)
		if _, err := p.ApplyDelta(platform.Delta{Kind: platform.DeltaNodeDown, Node: v}); err != nil {
			panic(err)
		}
	}
	var support []graph.Edge
	for id := 0; id < p.NumLinks(); id++ {
		if l := p.Link(id); p.NodeAlive(l.From) && p.NodeAlive(l.To) {
			support = append(support, graph.Edge{ID: id, From: l.From, To: l.To})
		}
	}
	return p, root, support
}

// TestPricerMatchesRecursiveChuLiu the buffer-reusing pricer must choose the
// arborescences the recursive, allocating Chu-Liu/Edmonds it replaced chose —
// same edges in the same order, same total — on costs full of exact and
// near (sub-graph.ArborescenceCostEps) ties, round after round on one pricer.
func TestPricerMatchesRecursiveChuLiu(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		p, root, support := randomSupport(rng, n, rng.Intn(3*n), rng.Intn(3))
		pr := newPricer(p, root, support)
		cost := make([]float64, len(support))
		for round := 0; round < 6; round++ {
			levels := 1 + rng.Intn(4)
			for i := range cost {
				cost[i] = float64(rng.Intn(levels)) / float64(levels)
				if rng.Intn(4) == 0 {
					cost[i] += 1e-13 * float64(rng.Intn(3))
				}
			}
			priced := make([]refEdge, len(support))
			for i, e := range support {
				priced[i] = refEdge{from: e.From, to: e.To, cost: cost[i], id: e.ID}
			}
			wantEdges, wantTotal, wantOK := refMinCostArborescence(p, root, priced)
			ids, total, ok := pr.arb.Solve(cost)
			if ok != wantOK {
				t.Fatalf("trial %d round %d: ok=%v, reference ok=%v", trial, round, ok, wantOK)
			}
			if !ok {
				continue
			}
			got := make([]int, len(ids))
			for i, idx := range ids {
				got[i] = support[idx].ID
			}
			want := make([]int, len(wantEdges))
			for i, e := range wantEdges {
				want[i] = e.id
			}
			if !reflect.DeepEqual(got, want) || total != wantTotal {
				t.Fatalf("trial %d round %d (n=%d, %d edges): links %v total %v, reference %v total %v",
					trial, round, n, len(support), got, total, want, wantTotal)
			}
			if _, err := pr.tree(ids); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
		}
	}
}

// TestPricerUnreachable a support that strands an alive node has no
// arborescence, and the pricer says so instead of returning a partial one.
func TestPricerUnreachable(t *testing.T) {
	p := platform.New(3)
	id := p.MustAddLink(0, 1, model.AffineCost{PerUnit: 1})
	pr := newPricer(p, 0, []graph.Edge{{ID: id, From: 0, To: 1}})
	if _, _, ok := pr.arb.Solve([]float64{0}); ok {
		t.Fatal("arborescence reported over a support that never reaches node 2")
	}
}

// refEdge, refMinCostArborescence and refChuLiu are the pricing this package
// ran before the pricer kept its buffers — recursive, one contraction per
// level, fresh slices and maps at every level — kept verbatim as the
// reference TestPricerMatchesRecursiveChuLiu compares choices against.
type refEdge struct {
	from, to int
	cost     float64
	id       int // platform link ID
}

// refMinCostArborescence finds the minimum-total-cost arborescence rooted at
// root spanning the alive nodes, over the given support edges, with the
// classic Chu-Liu/Edmonds contraction. Ties (equal cost up to eps) are
// broken by smallest link ID so the result — and with it the whole packing
// — is deterministic. Returns the chosen edges and ok=false when some alive
// node is unreachable.
func refMinCostArborescence(p *platform.Platform, root int, support []refEdge) (chosen []refEdge, total float64, ok bool) {
	n := p.NumNodes()
	// Compress the alive nodes to 0..k-1 with the root first; dead nodes do
	// not participate.
	label := make([]int, n)
	for u := range label {
		label[u] = -1
	}
	label[root] = 0
	k := 1
	for u := 0; u < n; u++ {
		if u != root && p.NodeAlive(u) {
			label[u] = k
			k++
		}
	}
	edges := make([]refEdge, len(support))
	for i, e := range support {
		edges[i] = refEdge{from: label[e.from], to: label[e.to], cost: e.cost, id: e.id}
	}
	ids, ok := refChuLiu(k, 0, edges)
	if !ok {
		return nil, 0, false
	}
	byID := make(map[int]refEdge, len(support))
	for _, e := range support {
		byID[e.id] = e
	}
	chosen = make([]refEdge, len(ids))
	for i, id := range ids {
		chosen[i] = byID[id]
		total += chosen[i].cost
	}
	return chosen, total, true
}

// refChuLiu is the recursive Chu-Liu/Edmonds step on a compressed node set
// 0..n-1: pick each node's cheapest incoming edge; if the picks are acyclic
// they are the arborescence, otherwise one cycle is contracted into a
// supernode (incoming costs reduced by the cycle edge they replace) and the
// algorithm recurses on the relabeled graph. It returns the chosen original
// link IDs; total cost is recomputed by the caller from the original edges.
func refChuLiu(n, root int, edges []refEdge) (ids []int, ok bool) {
	// minIn[v]: index into edges of the cheapest edge entering v.
	minIn := make([]int, n)
	for v := range minIn {
		minIn[v] = -1
	}
	for i, e := range edges {
		if e.to == root || e.from == e.to {
			continue
		}
		cur := minIn[e.to]
		switch {
		case cur < 0:
			minIn[e.to] = i
		case e.cost < edges[cur].cost-graph.ArborescenceCostEps:
			minIn[e.to] = i
		case e.cost <= edges[cur].cost+graph.ArborescenceCostEps && e.id < edges[cur].id:
			minIn[e.to] = i
		}
	}
	for v := 0; v < n; v++ {
		if v != root && minIn[v] < 0 {
			return nil, false
		}
	}

	// Cycle detection over the chosen-parent graph.
	const (
		unseen = 0
		onPath = 1
		done   = 2
	)
	state := make([]int, n)
	state[root] = done
	var cycle []int
	for v := 0; v < n && cycle == nil; v++ {
		if state[v] != unseen {
			continue
		}
		path := []int{}
		u := v
		for state[u] == unseen {
			state[u] = onPath
			path = append(path, u)
			u = edges[minIn[u]].from
		}
		if state[u] == onPath {
			// Extract the cycle: the tail of path from the first occurrence
			// of u.
			for i, w := range path {
				if w == u {
					cycle = append([]int(nil), path[i:]...)
					break
				}
			}
		}
		for _, w := range path {
			state[w] = done
		}
	}

	if cycle == nil {
		ids = make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != root {
				ids = append(ids, edges[minIn[v]].id)
			}
		}
		return ids, true
	}

	// Contract the cycle into one supernode and relabel: non-cycle nodes
	// keep their relative order (so labeling stays deterministic), the
	// cycle folds onto the last index.
	inCycle := make([]bool, n)
	for _, v := range cycle {
		inCycle[v] = true
	}
	relabel := make([]int, n)
	m := 0
	for v := 0; v < n; v++ {
		if !inCycle[v] {
			relabel[v] = m
			m++
		}
	}
	super := m
	for _, v := range cycle {
		relabel[v] = super
	}
	var contracted []refEdge
	// displaced[i] is, for contracted edge i, the cycle node whose min-in
	// edge the contracted edge would displace (-1 for edges not entering
	// the cycle).
	var displaced []int
	for _, e := range edges {
		switch {
		case inCycle[e.from] && inCycle[e.to]:
			// Internal to the cycle: drop.
		case inCycle[e.to]:
			// Entering the cycle: cost reduced by the cycle edge it would
			// displace.
			red := e.cost - edges[minIn[e.to]].cost
			contracted = append(contracted, refEdge{from: relabel[e.from], to: super, cost: red, id: e.id})
			displaced = append(displaced, e.to)
		case inCycle[e.from]:
			contracted = append(contracted, refEdge{from: super, to: relabel[e.to], cost: e.cost, id: e.id})
			displaced = append(displaced, -1)
		default:
			contracted = append(contracted, refEdge{from: relabel[e.from], to: relabel[e.to], cost: e.cost, id: e.id})
			displaced = append(displaced, -1)
		}
	}
	subIDs, ok := refChuLiu(m+1, relabel[root], contracted)
	if !ok {
		return nil, false
	}

	// Expand: exactly one chosen edge entered the supernode (it has exactly
	// one parent in the sub-arborescence); keep every cycle min-in edge
	// except the one that edge displaced.
	idSet := make(map[int]bool, len(subIDs))
	for _, id := range subIDs {
		idSet[id] = true
	}
	entered := -1 // cycle node whose min-in edge is displaced
	for ci, cv := range displaced {
		if cv >= 0 && idSet[contracted[ci].id] {
			entered = cv
			break
		}
	}
	if entered < 0 {
		return nil, false
	}
	ids = subIDs
	for _, v := range cycle {
		if v != entered {
			ids = append(ids, edges[minIn[v]].id)
		}
	}
	return ids, true
}
