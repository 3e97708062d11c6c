package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleEdge(t *testing.T) {
	nw := New(2)
	id := nw.AddEdge(0, 1, 3.5)
	if got := nw.MaxFlow(0, 1); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("flow = %v, want 3.5", got)
	}
	if got := nw.Flow(id); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("edge flow = %v, want 3.5", got)
	}
}

func TestClassicDiamond(t *testing.T) {
	// s=0, t=3; two paths with a cross edge. Classic max-flow example.
	nw := New(4)
	nw.AddEdge(0, 1, 3)
	nw.AddEdge(0, 2, 2)
	nw.AddEdge(1, 2, 5)
	nw.AddEdge(1, 3, 2)
	nw.AddEdge(2, 3, 3)
	if got := nw.MaxFlow(0, 3); math.Abs(got-5) > 1e-9 {
		t.Fatalf("flow = %v, want 5", got)
	}
}

func TestCLRSExample(t *testing.T) {
	// The flow network from CLRS (Figure 26.1): max flow 23.
	nw := New(6)
	s, v1, v2, v3, v4, t0 := 0, 1, 2, 3, 4, 5
	nw.AddEdge(s, v1, 16)
	nw.AddEdge(s, v2, 13)
	nw.AddEdge(v1, v3, 12)
	nw.AddEdge(v2, v1, 4)
	nw.AddEdge(v2, v4, 14)
	nw.AddEdge(v3, v2, 9)
	nw.AddEdge(v3, t0, 20)
	nw.AddEdge(v4, v3, 7)
	nw.AddEdge(v4, t0, 4)
	if got := nw.MaxFlow(s, t0); math.Abs(got-23) > 1e-9 {
		t.Fatalf("flow = %v, want 23", got)
	}
	cut := nw.MinCutSourceSide(s)
	if got := nw.CutCapacity(cut); math.Abs(got-23) > 1e-9 {
		t.Fatalf("cut capacity = %v, want 23 (max-flow = min-cut)", got)
	}
}

func TestDisconnected(t *testing.T) {
	nw := New(4)
	nw.AddEdge(0, 1, 5)
	nw.AddEdge(2, 3, 5)
	if got := nw.MaxFlow(0, 3); got != 0 {
		t.Fatalf("flow across disconnected graph = %v, want 0", got)
	}
	cut := nw.MinCutSourceSide(0)
	if !cut[0] || !cut[1] || cut[2] || cut[3] {
		t.Fatalf("source side = %v", cut)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	nw := New(2)
	nw.AddEdge(0, 1, 1)
	if nw.MaxFlow(0, 0) != 0 {
		t.Fatal("flow from a node to itself should be 0")
	}
}

func TestZeroAndNegativeCapacities(t *testing.T) {
	nw := New(3)
	nw.AddEdge(0, 1, 0)
	nw.AddEdge(1, 2, -5) // treated as zero
	if got := nw.MaxFlow(0, 2); got != 0 {
		t.Fatalf("flow = %v, want 0", got)
	}
	if nw.NumEdges() != 2 || nw.NumNodes() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestResetAndSetCapacity(t *testing.T) {
	nw := New(3)
	a := nw.AddEdge(0, 1, 2)
	b := nw.AddEdge(1, 2, 1)
	if got := nw.MaxFlow(0, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("flow = %v, want 1", got)
	}
	// Re-running without reset gives 0 extra flow (saturated residual).
	if got := nw.MaxFlow(0, 2); got > 1e-9 {
		t.Fatalf("second run without reset = %v, want 0", got)
	}
	nw.Reset()
	if got := nw.MaxFlow(0, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("flow after reset = %v, want 1", got)
	}
	nw.SetCapacity(b, 5)
	nw.SetCapacity(a, 5)
	if got := nw.MaxFlow(0, 2); math.Abs(got-5) > 1e-9 {
		t.Fatalf("flow after capacity update = %v, want 5", got)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("New(-1)", func() { New(-1) })
	mustPanic("AddEdge out of range", func() { New(2).AddEdge(0, 5, 1) })
	mustPanic("MaxFlow out of range", func() {
		nw := New(2)
		nw.AddEdge(0, 1, 1)
		nw.MaxFlow(0, 7)
	})
}

func TestMinCutSourceSideInvalidSource(t *testing.T) {
	nw := New(2)
	nw.AddEdge(0, 1, 1)
	cut := nw.MinCutSourceSide(-1)
	for _, v := range cut {
		if v {
			t.Fatal("invalid source should yield an empty source side")
		}
	}
}

func TestCutEdges(t *testing.T) {
	nw := New(4)
	nw.AddEdge(0, 1, 1)
	e1 := nw.AddEdge(1, 2, 1)
	nw.AddEdge(2, 3, 1)
	nw.AddEdge(3, 1, 1) // back edge, never crosses the cut below
	cut := []bool{true, true, false, false}
	ids := nw.CutEdges(cut)
	if len(ids) != 1 || ids[0] != e1 {
		t.Fatalf("cut edges = %v, want [%d]", ids, e1)
	}
	if got := nw.CutCapacity(cut); got != 1 {
		t.Fatalf("cut capacity = %v, want 1", got)
	}
}

// TestFlowConservationProperty checks on random graphs that (i) the flow
// value equals the min-cut capacity found from the residual graph, (ii) flow
// on every edge is within capacity, and (iii) flow is conserved at every
// intermediate node.
func TestFlowConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		nw := New(n)
		type rec struct{ from, to int }
		var recs []rec
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			nw.AddEdge(u, v, rng.Float64()*10)
			recs = append(recs, rec{u, v})
		}
		s, t0 := 0, n-1
		val := nw.MaxFlow(s, t0)

		// Max-flow equals min-cut capacity.
		cut := nw.MinCutSourceSide(s)
		if !cut[s] || cut[t0] && val > 1e-7 {
			// If the sink is still reachable the flow is not maximum.
			return false
		}
		if math.Abs(nw.CutCapacity(cut)-val) > 1e-6 {
			return false
		}

		// Capacity and conservation constraints.
		net := make([]float64, n)
		for id, r := range recs {
			fl := nw.Flow(id)
			if fl < -1e-9 {
				return false
			}
			net[r.from] -= fl
			net[r.to] += fl
		}
		for u := 0; u < n; u++ {
			if u == s || u == t0 {
				continue
			}
			if math.Abs(net[u]) > 1e-6 {
				return false
			}
		}
		return math.Abs(net[t0]-val) < 1e-6 && math.Abs(net[s]+val) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstBruteForceOnSmallGraphs compares Dinic with a brute-force
// enumeration of all s-t cuts on small random graphs.
func TestAgainstBruteForceOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(4) // 3..6 nodes
		nw := New(n)
		type rec struct {
			from, to int
			cap      float64
		}
		var recs []rec
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.5 {
					c := rng.Float64() * 5
					nw.AddEdge(u, v, c)
					recs = append(recs, rec{u, v, c})
				}
			}
		}
		s, t0 := 0, n-1
		got := nw.MaxFlow(s, t0)

		// Brute force: minimum over all subsets containing s but not t.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<s) == 0 || mask&(1<<t0) != 0 {
				continue
			}
			var capSum float64
			for _, r := range recs {
				if mask&(1<<r.from) != 0 && mask&(1<<r.to) == 0 {
					capSum += r.cap
				}
			}
			if capSum < best {
				best = capSum
			}
		}
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("trial %d: Dinic %v vs brute-force min cut %v", trial, got, best)
		}
	}
}

// refNetwork is the recursive Dinic this package shipped before the kernel
// was rebuilt (forward levels from the source, a depth-first search that
// restarts at the source after every augmentation, a full Reset). It is kept
// verbatim as the oracle of the differential and fuzz tiers: the production
// kernel must reproduce its flow values, per-edge flows and minimum cuts bit
// for bit.
type refNetwork struct {
	n     int
	arcs  []refArc
	adj   [][]int
	orig  []float64
	level []int
	iter  []int
}

type refArc struct {
	to  int
	cap float64
}

func newRef(n int) *refNetwork { return &refNetwork{n: n, adj: make([][]int, n)} }

func (nw *refNetwork) AddEdge(from, to int, capacity float64) int {
	if capacity < 0 || math.IsNaN(capacity) {
		capacity = 0
	}
	id := len(nw.arcs) / 2
	nw.arcs = append(nw.arcs, refArc{to: to, cap: capacity}, refArc{to: from, cap: 0})
	nw.adj[from] = append(nw.adj[from], 2*id)
	nw.adj[to] = append(nw.adj[to], 2*id+1)
	nw.orig = append(nw.orig, capacity)
	return id
}

func (nw *refNetwork) SetCapacity(edgeID int, capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		capacity = 0
	}
	nw.orig[edgeID] = capacity
	nw.arcs[2*edgeID].cap = capacity
	nw.arcs[2*edgeID+1].cap = 0
}

func (nw *refNetwork) Reset() {
	for id, c := range nw.orig {
		nw.arcs[2*id].cap = c
		nw.arcs[2*id+1].cap = 0
	}
}

func (nw *refNetwork) Flow(edgeID int) float64 {
	f := nw.orig[edgeID] - nw.arcs[2*edgeID].cap
	if f < eps {
		return 0
	}
	return f
}

func (nw *refNetwork) bfsLevels(s, t int) bool {
	if nw.level == nil {
		nw.level = make([]int, nw.n)
	}
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := []int{s}
	nw.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ai := range nw.adj[u] {
			a := nw.arcs[ai]
			if a.cap > eps && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *refNetwork) dfsBlocking(u, t int, pushed float64) float64 {
	if u == t {
		return pushed
	}
	for ; nw.iter[u] < len(nw.adj[u]); nw.iter[u]++ {
		ai := nw.adj[u][nw.iter[u]]
		a := &nw.arcs[ai]
		if a.cap <= eps || nw.level[a.to] != nw.level[u]+1 {
			continue
		}
		d := nw.dfsBlocking(a.to, t, math.Min(pushed, a.cap))
		if d > eps {
			a.cap -= d
			nw.arcs[ai^1].cap += d
			return d
		}
	}
	return 0
}

func (nw *refNetwork) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	var total float64
	if nw.iter == nil {
		nw.iter = make([]int, nw.n)
	}
	for nw.bfsLevels(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			pushed := nw.dfsBlocking(s, t, math.Inf(1))
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total
}

func (nw *refNetwork) MinCutSourceSide(s int) []bool {
	reach := make([]bool, nw.n)
	queue := []int{s}
	reach[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ai := range nw.adj[u] {
			a := nw.arcs[ai]
			if a.cap > eps && !reach[a.to] {
				reach[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	return reach
}

func (nw *refNetwork) MinCutSinkSide(t int) []bool {
	canReach := make([]bool, nw.n)
	queue := []int{t}
	canReach[t] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ai := range nw.adj[u] {
			v := nw.arcs[ai].to
			if !canReach[v] && nw.arcs[ai^1].cap > eps {
				canReach[v] = true
				queue = append(queue, v)
			}
		}
	}
	side := make([]bool, nw.n)
	for v := range side {
		side[v] = !canReach[v]
	}
	return side
}
