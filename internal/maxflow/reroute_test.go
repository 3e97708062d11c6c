package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// hop is one Reroute of a sink chain: fresh marks a hop that started over
// from the source on a Reset network.
type hop struct {
	from, to int
	fresh    bool
	ok       bool
}

// chainAmount picks the chained flow value relative to the reference maximum
// flow f to the first sink: on it, one ulp either side, the chain margin
// either side, a fraction of it, and the values the contract names (zero,
// negative, +Inf, NaN).
func (sc *script) chainAmount(f float64) float64 {
	switch sc.byte() % 10 {
	case 0:
		return f
	case 1:
		return math.Nextafter(f, math.Inf(1))
	case 2:
		return math.Nextafter(f, math.Inf(-1))
	case 3:
		return f * (1 + 1e-9)
	case 4:
		return f * (1 - 1e-9)
	case 5:
		return 0
	case 6:
		return -1
	case 7:
		return math.Inf(1)
	case 8:
		return math.NaN()
	default:
		return f * float64(1+sc.byte()) / 128
	}
}

// checkChainedFlow asserts that the network holds a flow of value amount
// from s to t: every edge's flow orig − rcap within its capacity, and
// conservation within 1e-12·amount everywhere, with amount leaving s and
// arriving at t. Conservation reads each edge's flow off its reverse arc,
// whose residual is exactly the flow pushed through the edge, accumulated
// without orig − rcap's cancellation against a capacity that may dwarf it.
func (sc *script) checkChainedFlow(s, t int, amount float64, net []float64) {
	sc.t.Helper()
	nw := sc.nw
	for v := range net {
		net[v] = 0
	}
	for e, c := range nw.orig {
		if f := c - nw.rcap[2*e]; f < -1e-12*c || f > c {
			sc.t.Fatalf("edge %d carries %v, capacity %v", e, f, c)
		}
		f := nw.rcap[2*e+1]
		net[nw.to[2*e]] += f
		net[nw.to[2*e+1]] -= f
	}
	tol := 1e-12 * amount
	for v, x := range net {
		want := 0.0
		switch v {
		case t:
			want = amount
		case s:
			want = -amount
		}
		if math.Abs(x-want) > tol {
			sc.t.Fatalf("node %d: net inflow %v, want %v (s=%d t=%d amount %v)", v, x, want, s, t, amount)
		}
	}
}

// slivers reports whether the flow held by the network left some residual
// arc with capacity the eps floor hides from the search (0 < rcap <= eps).
// Capacities that small from the start are hidden from the reference too.
func (sc *script) slivers() bool {
	for a, c := range sc.nw.rcap {
		fresh := 0.0
		if a%2 == 0 {
			fresh = sc.nw.orig[a/2]
		}
		if c > 0 && c <= eps && c != fresh {
			return true
		}
	}
	return false
}

// runChain interprets the script as a sink chain: a random network, a
// source, one amount, and a sequence of sinks that Reroute visits in turn,
// each hop starting from the last certified sink, or from the source on a
// Reset network once a refusal broke the chain. Every hop is checked against
// the reference Dinic's maximum flow from the source to that sink.
func (sc *script) runChain() {
	t := sc.t
	sc.n = 2 + sc.byte()%14
	sc.nw, sc.ref = New(sc.n), newRef(sc.n)
	for k := sc.byte() % 48; k > 0; k-- {
		sc.addEdge(sc.byte()%sc.n, sc.byte()%sc.n, sc.capacity())
	}
	if sc.byte()%2 == 0 {
		// A bidirectional ring: long paths, and chained flow that must be
		// cancelled over reverse arcs to reach the next sink.
		rng := rand.New(rand.NewSource(int64(sc.byte())))
		for i := 0; i < sc.n; i++ {
			j := (i + 1) % sc.n
			sc.addEdge(i, j, math.Floor(rng.Float64()*8)/4)
			sc.addEdge(j, i, rng.Float64()*3)
		}
	}
	source := sc.byte() % sc.n
	sink := func() int { return (source + 1 + sc.byte()%(sc.n-1)) % sc.n }

	hops := make([]hop, 0, 24)
	first := sink()
	amount := sc.chainAmount(sc.ref.MaxFlow(source, first))
	// The eps floor: residual arcs at or below eps count as saturated, so a
	// hop may lose up to eps per arc of a cut to slivers.
	slack := 2 * eps * float64(sc.nw.NumEdges())
	net := make([]float64, sc.n)
	prev := -1
	for k, steps := 0, 1+sc.byte()%24; k < steps; k++ {
		w := first
		if k > 0 {
			w = sink()
		}
		h := hop{from: prev, to: w, fresh: prev < 0}
		if h.fresh {
			sc.nw.Reset()
			h.from = source
		}
		hidden := sc.slivers()
		h.ok = sc.nw.Reroute(h.from, w, amount)
		hops = append(hops, h)
		mustPanic(t, "MinCutSourceSide after Reroute", func() { sc.nw.MinCutSourceSide(source) })
		mustPanic(t, "MinCutSinkSideInto after Reroute", func() { sc.nw.MinCutSinkSideInto(w, make([]bool, sc.n)) })

		sc.ref.Reset()
		f := sc.ref.MaxFlow(source, w)
		if !h.ok {
			// A fresh hop is MaxFlowBounded's augmentations with the last
			// one capped, so it refuses exactly when the maximum flow falls
			// short of the amount. A chained hop may also be refused for
			// capacity the eps floor hides from the search: slivers of the
			// held flow or of the residual network, which can only matter
			// when they are there, or when the amount is within a few
			// thousand eps floors.
			if (h.fresh && f >= amount) || (!hidden && amount > 1e3*slack && f >= amount*(1+1e-9)+slack) {
				t.Fatalf("hop %d: Reroute(%d, %d, %v) refused a sink whose maximum flow from %d is %v", k, h.from, w, amount, source, f)
			}
			prev = -1
			continue
		}
		if !(f >= amount*(1-1e-12)-slack) {
			t.Fatalf("hop %d: Reroute(%d, %d, %v) certified a sink whose maximum flow from %d is only %v", k, h.from, w, amount, source, f)
		}
		if amount > 0 {
			sc.checkChainedFlow(source, w, amount, net)
		}
		prev = w
	}

	// A warm handle replays the chain without allocating, to the same
	// outcomes.
	got := make([]bool, len(hops))
	replay := func() {
		for i, h := range hops {
			if h.fresh {
				sc.nw.Reset()
			}
			got[i] = sc.nw.Reroute(h.from, h.to, amount)
		}
	}
	if allocs := testing.AllocsPerRun(1, replay); allocs != 0 {
		t.Fatalf("a warm sink chain allocates %v times", allocs)
	}
	for i, h := range hops {
		if got[i] != h.ok {
			t.Fatalf("replayed hop %d (%d -> %d) = %v, first run %v", i, h.from, h.to, got[i], h.ok)
		}
	}
}

// TestRerouteChainAgainstRecursiveDinic runs random sink chains through the
// interpreter FuzzRerouteChain uses.
func TestRerouteChainAgainstRecursiveDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 20+rng.Intn(300))
		rng.Read(data)
		(&script{t: t, data: data}).runChain()
	}
}

// FuzzRerouteChain checks chained flows against the reference Dinic:
// soundness (a certified sink's maximum flow reaches the amount), completeness
// (a sink whose maximum flow clears the amount by the chain margin is never
// refused), a valid flow of exactly the amount after every certified hop,
// min cuts refused after a Reroute, and no allocation on a warm handle.
//
//	go test ./internal/maxflow -run '^$' -fuzz FuzzRerouteChain -fuzztime=10s
func FuzzRerouteChain(f *testing.F) {
	f.Add([]byte{6, 0, 0, 3, 4, 0, 1, 4, 5, 2, 0, 9, 1, 7})
	f.Add([]byte{12, 10, 0, 1, 3, 4, 0, 1, 3, 2, 2, 4, 0, 17, 9, 3, 3})
	f.Add([]byte{9, 3, 0, 1, 7, 150, 1, 2, 7, 90, 2, 0, 7, 200, 0, 5, 4, 0, 3, 12, 1, 4, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		(&script{t: t, data: data}).runChain()
	})
}

// TestRerouteMovesTheSink pins the basic move on a path 0 -> 1 -> 2 with a
// side edge 0 -> 2: the flow to node 1 is moved on to node 2, overshooting
// neither sink, and a sink the flow cannot reach is refused.
func TestRerouteMovesTheSink(t *testing.T) {
	nw := New(4)
	a := nw.AddEdge(0, 1, 2)
	b := nw.AddEdge(1, 2, 1.5)
	c := nw.AddEdge(0, 2, 1)
	nw.AddEdge(3, 0, 5)
	if !nw.Reroute(0, 1, 1.75) {
		t.Fatal("0 -> 1 carries 2, amount 1.75 refused")
	}
	if nw.Flow(a) != 1.75 {
		t.Fatalf("capped push: edge 0->1 carries %v, want exactly 1.75", nw.Flow(a))
	}
	if !nw.Reroute(1, 2, 1.75) {
		t.Fatal("the 1.75 at node 1 can reach node 2 (1.5 direct, 0.25 back through 0 -> 2)")
	}
	if got := nw.Flow(a) + nw.Flow(c); got != 1.75 || nw.Flow(b)+nw.Flow(c) != 1.75 {
		t.Fatalf("flows a=%v b=%v c=%v, want 1.75 out of 0 and into 2", nw.Flow(a), nw.Flow(b), nw.Flow(c))
	}
	mustPanic(t, "MinCutSourceSide after Reroute", func() { nw.MinCutSourceSide(0) })
	if nw.Reroute(2, 3, 1.75) {
		t.Fatal("node 3 has no in-edge, yet the flow was moved there")
	}
	nw.Reset()
	if !nw.Reroute(0, 2, 0) || !nw.Reroute(0, 2, -1) || !nw.Reroute(2, 2, 7) {
		t.Fatal("an amount <= 0, or from == to, must succeed with nothing pushed")
	}
	if nw.Reroute(0, 2, math.NaN()) || nw.Reroute(0, 2, math.Inf(1)) {
		t.Fatal("NaN and +Inf amounts cannot be pushed")
	}
	nw.Reset()
	if got := nw.MaxFlow(0, 2); got != 2.5 {
		t.Fatalf("after Reset MaxFlow(0, 2) = %v, want 2.5", got)
	}
	nw.MinCutSourceSide(0) // no panic after a full flow
}

// TestRerouteAbsorbsRoundOff pins the case rerouteRoundoff exists for: node 1
// receives its amount over two paths, the second one capped at amount − a,
// and a + (amount − a) rounds one ulp below amount. Node 1 can pass on only
// what it received, back over the two paths, so moving the flow on to node 3
// must not be refused for that ulp.
func TestRerouteAbsorbsRoundOff(t *testing.T) {
	a, amount := 0.10012914395045203, 1.9561505984682517
	if a+(amount-a) >= amount {
		t.Fatal("the fixture no longer rounds below its amount")
	}
	nw := New(4)
	nw.AddEdge(0, 1, a)
	nw.AddEdge(0, 2, 5)
	nw.AddEdge(2, 1, 5)
	nw.AddEdge(0, 3, 10)
	if !nw.Reroute(0, 1, amount) {
		t.Fatal("node 1 can take the amount")
	}
	if !nw.Reroute(1, 3, amount) {
		t.Fatal("the flow at node 1 was refused its move to node 3 for a rounding ulp")
	}
}
