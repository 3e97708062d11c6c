package maxflow

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// script drives the production kernel and the reference Dinic through the
// same sequence of operations, decoded from bytes so that the random
// differential tier and the fuzz target share one interpreter. Running out
// of bytes yields zeros, which decode to harmless operations.
type script struct {
	t    testing.TB
	data []byte
	pos  int

	n   int
	nw  *Network
	ref *refNetwork
}

func (sc *script) byte() int {
	if sc.pos >= len(sc.data) {
		sc.pos++
		return 0
	}
	b := sc.data[sc.pos]
	sc.pos++
	return int(b)
}

// capacity decodes one capacity: the special values AddEdge and SetCapacity
// must clamp, values straddling eps, exact small integers (ties between
// paths), fractions that round, and raw bit patterns kept finite.
func (sc *script) capacity() float64 {
	switch sc.byte() % 8 {
	case 0:
		return 0
	case 1:
		return math.NaN()
	case 2:
		return -1.5
	case 3:
		return float64(sc.byte() % 6)
	case 4:
		return float64(sc.byte()) / 7
	case 5:
		return eps * float64(sc.byte()) / 64
	case 6:
		var raw [8]byte
		for i := range raw {
			raw[i] = byte(sc.byte())
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		if math.Abs(f) > 1e9 { // also ±Inf; NaN passes through
			f = math.Copysign(1e9, f)
		}
		return f
	default:
		return float64(sc.byte()<<8|sc.byte()) / 1000
	}
}

func (sc *script) addEdge(u, v int, c float64) {
	a, b := sc.nw.AddEdge(u, v, c), sc.ref.AddEdge(u, v, c)
	if a != b {
		sc.t.Fatalf("AddEdge IDs differ: %d vs reference %d", a, b)
	}
}

// compareResidual asserts equal per-edge flows and equal canonical minimum
// cuts, through both the allocating and the buffer-reusing entry points.
func (sc *script) compareResidual(s, t int, what string) {
	sc.t.Helper()
	for e := 0; e < sc.nw.NumEdges(); e++ {
		if got, want := sc.nw.Flow(e), sc.ref.Flow(e); math.Float64bits(got) != math.Float64bits(want) {
			sc.t.Fatalf("%s: Flow(%d) = %v, reference %v", what, e, got, want)
		}
	}
	src, sink := sc.nw.MinCutSourceSide(s), sc.nw.MinCutSinkSide(t)
	wantSrc, wantSink := sc.ref.MinCutSourceSide(s), sc.ref.MinCutSinkSide(t)
	buf := make([]bool, sc.n)
	for v := 0; v < sc.n; v++ {
		if src[v] != wantSrc[v] || sink[v] != wantSink[v] {
			sc.t.Fatalf("%s: min cuts differ at node %d: source side %v/%v sink side %v/%v", what, v, src[v], wantSrc[v], sink[v], wantSink[v])
		}
		buf[v] = v%2 == 0 // stale content the Into variants must overwrite
	}
	for v, in := range sc.nw.MinCutSourceSideInto(s, buf) {
		if in != wantSrc[v] {
			sc.t.Fatalf("%s: MinCutSourceSideInto differs at node %d", what, v)
		}
	}
	for v, in := range sc.nw.MinCutSinkSideInto(t, buf) {
		if in != wantSink[v] {
			sc.t.Fatalf("%s: MinCutSinkSideInto differs at node %d", what, v)
		}
	}
}

// boundedLimit picks a bound relative to the true maximum flow f: far above,
// far below, on it, one ulp either side, within eps of it, and the values
// the contract names (zero, negative, +Inf, NaN).
func (sc *script) boundedLimit(f float64) float64 {
	switch k := sc.byte(); k % 10 {
	case 0:
		return f
	case 1:
		return math.Nextafter(f, math.Inf(1))
	case 2:
		return math.Nextafter(f, math.Inf(-1))
	case 3:
		return f + eps/2
	case 4:
		return f - eps/2
	case 5:
		return 0
	case 6:
		return -1
	case 7:
		return math.Inf(1)
	case 8:
		return math.NaN()
	default:
		return f * float64(sc.byte()) / 128
	}
}

func mustPanic(t testing.TB, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// run interprets the script. Every flow is checked for a bit-equal value,
// equal per-edge flows and equal minimum cuts against the reference.
func (sc *script) run() {
	t := sc.t
	sc.n = 2 + sc.byte()%30
	sc.nw, sc.ref = New(sc.n), newRef(sc.n)
	for steps := 0; sc.pos < len(sc.data) && steps < 400; steps++ {
		switch op := sc.byte(); op % 8 {
		case 0, 1:
			sc.addEdge(sc.byte()%sc.n, sc.byte()%sc.n, sc.capacity())
		case 2:
			// A bidirectional ring with random capacities: long shortest
			// paths, several phases, and flow cancelled over reverse arcs.
			rng := rand.New(rand.NewSource(int64(sc.byte())))
			for i := 0; i < sc.n; i++ {
				j := (i + 1) % sc.n
				sc.addEdge(i, j, math.Floor(rng.Float64()*8)/4)
				sc.addEdge(j, i, rng.Float64()*3)
			}
		case 3:
			if m := sc.nw.NumEdges(); m > 0 {
				e, c := sc.byte()%m, sc.capacity()
				sc.nw.SetCapacity(e, c)
				sc.ref.SetCapacity(e, c)
			}
		case 4, 5:
			// op 4 starts from a clean network, op 5 continues on top of
			// whatever flow is already routed.
			s, d := sc.byte()%sc.n, sc.byte()%sc.n
			if op%8 == 4 {
				sc.nw.Reset()
				sc.ref.Reset()
			}
			got, want := sc.nw.MaxFlow(s, d), sc.ref.MaxFlow(s, d)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("MaxFlow(%d, %d) = %v (%x), reference %v (%x)", s, d, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			sc.compareResidual(s, d, "MaxFlow")
		default:
			s, d := sc.byte()%sc.n, sc.byte()%sc.n
			sc.nw.Reset()
			sc.ref.Reset()
			f := sc.ref.MaxFlow(s, d)
			limit := sc.boundedLimit(f)
			got := sc.nw.MaxFlowBounded(s, d, limit)
			if f < limit || math.IsNaN(limit) {
				// The bound cannot bind: same flow, same residual.
				if math.Float64bits(got) != math.Float64bits(f) {
					t.Fatalf("MaxFlowBounded(%d, %d, %v) = %v, want the maximum flow %v", s, d, limit, got, f)
				}
				sc.compareResidual(s, d, "MaxFlowBounded below its bound")
				continue
			}
			if got != limit {
				t.Fatalf("MaxFlowBounded(%d, %d, %v) = %v with maximum flow %v, want exactly the bound", s, d, limit, got, f)
			}
			mustPanic(t, "MinCutSourceSide after a bounded stop", func() { sc.nw.MinCutSourceSide(s) })
			mustPanic(t, "MinCutSinkSideInto after a bounded stop", func() { sc.nw.MinCutSinkSideInto(d, make([]bool, sc.n)) })
			sc.nw.Reset()
			sc.ref.Reset()
		}
	}
}

// TestDifferentialAgainstRecursiveDinic runs random scripts: float-capacity
// digraphs with multi-edges, self-loops, zero/NaN/negative capacities,
// SetCapacity between flows, flows with and without Reset, bounded flows.
func TestDifferentialAgainstRecursiveDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 600; trial++ {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		(&script{t: t, data: data}).run()
	}
}

// FuzzMaxFlowDifferential feeds arbitrary scripts to the same interpreter.
// The checked-in corpus (testdata/fuzz) holds the shapes that matter: rings
// with flow cancellation, capacities straddling eps, bounds one ulp either
// side of the maximum flow.
func FuzzMaxFlowDifferential(f *testing.F) {
	f.Add([]byte{10, 2, 7, 4, 0, 5, 5, 3, 9, 6, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		(&script{t: t, data: data}).run()
	})
}

// bounded builds the two-path network s -> {a, b} -> t used by the bounded
// flow table: path capacities c1 through a and c2 through b.
func bounded(c1, c2 float64) *Network {
	nw := New(4)
	nw.AddEdge(0, 1, c1)
	nw.AddEdge(1, 3, c1)
	nw.AddEdge(0, 2, c2)
	nw.AddEdge(2, 3, c2)
	return nw
}

func TestMaxFlowBoundedContract(t *testing.T) {
	const sliver = eps / 4
	cases := []struct {
		name    string
		c1, c2  float64
		limit   float64
		want    float64 // NaN: want the bound itself
		maximal bool
	}{
		{"limit above the maximum flow", 1, 0.5, 2, 1.5, true},
		{"limit one ulp above", 1, 0.5, math.Nextafter(1.5, 2), 1.5, true},
		{"limit on the maximum flow", 1, 0.5, 1.5, math.NaN(), false},
		{"limit below, reached by the first path", 1, 0.5, 0.75, math.NaN(), false},
		{"limit below, reached by the second path", 1, 0.5, 1.25, math.NaN(), false},
		// The second path is below eps, so the flow is exhausted a sliver
		// short of the bound: the search must end and report the true
		// maximum, not spin on a remainder no arc can carry.
		{"remainder within eps, nothing left to push", 1, sliver, 1 + 2*sliver, 1, true},
		{"remainder within eps, bound reached", 1, 0.5, 1.5 - sliver, math.NaN(), false},
		{"zero limit", 1, 0.5, 0, math.NaN(), false},
		{"negative limit", 1, 0.5, -3, math.NaN(), false},
		{"infinite limit", 1, 0.5, math.Inf(1), 1.5, true},
		{"NaN limit never binds", 1, 0.5, math.NaN(), 1.5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := bounded(tc.c1, tc.c2)
			got := nw.MaxFlowBounded(0, 3, tc.limit)
			if !tc.maximal {
				if got != tc.limit {
					t.Fatalf("returned %v, want exactly the bound %v", got, tc.limit)
				}
				mustPanic(t, "MinCutSourceSide", func() { nw.MinCutSourceSide(0) })
				nw.Reset()
				if full := nw.MaxFlow(0, 3); full != tc.c1+tc.c2 {
					t.Fatalf("after Reset MaxFlow = %v, want %v", full, tc.c1+tc.c2)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("returned %v, want the maximum flow %v", got, tc.want)
			}
			// Same residual as the unbounded flow.
			ref := bounded(tc.c1, tc.c2)
			ref.MaxFlow(0, 3)
			for e := 0; e < 4; e++ {
				if nw.Flow(e) != ref.Flow(e) {
					t.Fatalf("Flow(%d) = %v, unbounded %v", e, nw.Flow(e), ref.Flow(e))
				}
			}
			a, b := nw.MinCutSinkSide(3), ref.MinCutSinkSide(3)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("sink side differs at node %d", v)
				}
			}
		})
	}
}

// grid builds a rows x cols bidirectional mesh with random capacities, the
// shape of the solver's separation networks.
func grid(rows, cols int, rng *rand.Rand) *Network {
	nw := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			if c+1 < cols {
				nw.AddEdge(u, u+1, rng.Float64())
				nw.AddEdge(u+1, u, rng.Float64())
			}
			if r+1 < rows {
				nw.AddEdge(u, u+cols, rng.Float64())
				nw.AddEdge(u+cols, u, rng.Float64())
			}
		}
	}
	return nw
}

// TestSeparationStepDoesNotAllocate pins the zero-allocation contract of one
// separation step on a warmed network: Reset, a bounded flow, and both
// minimum-cut sides into reused buffers.
func TestSeparationStepDoesNotAllocate(t *testing.T) {
	nw := grid(8, 8, rand.New(rand.NewSource(3)))
	n := nw.NumNodes()
	src, sink := make([]bool, n), make([]bool, n)
	step := func() {
		for w := 1; w < n; w++ {
			nw.Reset()
			f := nw.MaxFlowBounded(0, w, math.Inf(1))
			nw.MinCutSourceSideInto(0, src)
			nw.MinCutSinkSideInto(w, sink)
			nw.Reset()
			if nw.MaxFlowBounded(0, w, f/2) != f/2 {
				t.Fatal("bounded flow did not stop on its bound")
			}
		}
	}
	step() // warm: CSR index, scratch buffers, touched log
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("separation step allocates %v times per sweep, want 0", allocs)
	}
}

func TestAddEdgeAfterFlowKeepsFlow(t *testing.T) {
	nw := New(3)
	a := nw.AddEdge(0, 1, 2)
	if nw.MaxFlow(0, 1) != 2 {
		t.Fatal("flow over the single edge should be 2")
	}
	nw.AddEdge(1, 2, 1) // forces the CSR index to be rebuilt
	if got := nw.MaxFlow(0, 2); got != 0 {
		t.Fatalf("edge 0 is saturated, so nothing more reaches node 2: got %v", got)
	}
	if nw.Flow(a) != 2 {
		t.Fatalf("flow on edge 0 = %v after the rebuild, want 2", nw.Flow(a))
	}
	nw.Reset()
	if got := nw.MaxFlow(0, 2); got != 1 {
		t.Fatalf("after Reset MaxFlow(0, 2) = %v, want 1", got)
	}
}
