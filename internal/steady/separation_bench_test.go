package steady_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/maxflow"
	"repro/internal/scenarios"
	"repro/internal/steady"
)

// BenchmarkSeparationSweep measures one separation sweep on the final-round
// edge rates of the three separation-bound large cells, so the per-flow cost
// has a `go test -bench` number next to the benchmark's
// maxflow.us_per_flow. The bounded variant is the per-destination sweep of
// the separation oracle: every flow is bounded by the violation threshold
// and minimum cuts are read only off violated destinations. The unbounded
// variant is the public-API replay the benchmark's traced run times: MaxFlow
// to the end plus both canonical minimum cuts. The chained variant is the
// solver's own separation step: one flow moved from destination to
// destination certifies the ones that are not violated, and fresh bounded
// flows decide the others; it reports its fresh flows and certified
// destinations per sweep, and ns/dest for a comparison with the others'
// ns/flow. It also does the cut bookkeeping the other two skip (crossing
// links, row dedup against the master), which is what it spends on
// cluster-of-clusters:512: that loop ends through the gap exit with half the
// destinations still violated by ~1e-8.
//
//	go test ./internal/steady -run '^$' -bench SeparationSweep -benchtime 20x
func BenchmarkSeparationSweep(b *testing.B) {
	const (
		source = 0
		seed   = 7
	)
	for _, c := range []struct {
		family string
		size   int
	}{
		{scenarios.NameRing, 512},
		{scenarios.NameChain, 512},
		{scenarios.NameClusters, 512},
	} {
		s, err := scenarios.Get(c.family)
		if err != nil {
			b.Fatal(err)
		}
		p, err := s.Generate(c.size, seed)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := steady.Solve(p, source, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := p.NumNodes()
		nw := maxflow.New(n)
		for id := 0; id < p.NumLinks(); id++ {
			l := p.Link(id)
			nw.AddEdge(l.From, l.To, sol.EdgeRate[id])
		}
		tp := sol.UpperBound
		threshold := tp - 1e-7*math.Max(1, tp)
		src, sink := make([]bool, n), make([]bool, n)

		sweep := func(b *testing.B, bounded bool) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < n; w++ {
					if w == source {
						continue
					}
					nw.Reset()
					if bounded {
						if nw.MaxFlowBounded(source, w, threshold) >= threshold {
							continue
						}
					} else {
						nw.MaxFlow(source, w)
					}
					nw.MinCutSourceSideInto(source, src)
					nw.MinCutSinkSideInto(w, sink)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(n-1)), "ns/flow")
		}
		name := fmt.Sprintf("%s:%d", c.family, c.size)
		b.Run(name+"/bounded", func(b *testing.B) { sweep(b, true) })
		b.Run(name+"/unbounded", func(b *testing.B) { sweep(b, false) })
		b.Run(name+"/chained", func(b *testing.B) {
			step := steady.ChainedSeparation(p, source, sol.EdgeRate, threshold)
			step() // warm: CSR index, scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			var flows, certified int
			for i := 0; i < b.N; i++ {
				f, c := step()
				flows += f
				certified += c
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(n-1)), "ns/dest")
			b.ReportMetric(float64(flows)/float64(b.N), "flows/op")
			b.ReportMetric(float64(certified)/float64(b.N), "certified/op")
		})
	}
}
