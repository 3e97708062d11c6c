package steady_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/maxflow"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/steady"
)

// certifyMutations are the ways FuzzCertify breaks a certified solution, each
// by more than Certify's 1e-6 bar.
const (
	mutThroughput = iota // throughput x(1+2e-6)
	mutMinCut            // every rate on the tightest destination's min cut x(1-1e-5)
	mutDeadLink          // the link with the largest rate taken down under it
	mutPort              // rates scaled until the busiest port is loaded 1+2e-6
	mutZeroPrices        // all-zero port prices
	mutScaled            // rates and throughput x(1-2e-6): feasible, not optimal
	numMutations
)

// FuzzCertify: on a small registry platform, Certify accepts the solution
// Solve returns, and rejects it after any one of certifyMutations — never a
// bound instead of an error.
func FuzzCertify(f *testing.F) {
	for kind := uint8(0); kind < numMutations; kind++ {
		for family := uint8(0); family < 10; family += 3 {
			f.Add(family, uint8(kind+family), int64(7+kind), kind)
		}
	}
	all := scenarios.All()
	f.Fuzz(func(t *testing.T, family, size uint8, seed int64, kind uint8) {
		s := all[int(family)%len(all)]
		n := max(s.MinSize, 2+int(size)%11)
		p, err := s.Generate(n, seed)
		if err != nil {
			t.Skipf("%s:%d seed %d: %v", s.Name, n, seed, err)
		}
		sol, err := steady.Solve(p, 0, nil)
		if err != nil {
			t.Fatalf("%s:%d seed %d: %v", s.Name, n, seed, err)
		}
		if _, _, err := steady.Certify(p, 0, sol); err != nil {
			t.Fatalf("%s:%d seed %d: the solution itself: %v", s.Name, n, seed, err)
		}
		mut := *sol
		mut.EdgeRate = append([]float64(nil), sol.EdgeRate...)
		q := p
		switch kind % numMutations {
		case mutThroughput:
			mut.Throughput *= 1 + 2e-6
		case mutMinCut:
			for _, id := range tightestMinCut(p, 0, sol.EdgeRate) {
				mut.EdgeRate[id] *= 1 - 1e-5
			}
		case mutDeadLink:
			busiest := 0
			for id, rate := range sol.EdgeRate {
				if rate > sol.EdgeRate[busiest] {
					busiest = id
				}
			}
			q = p.Clone()
			if _, err := q.ApplyDelta(platform.Delta{Kind: platform.DeltaLinkDown, Link: busiest}); err != nil {
				t.Fatal(err)
			}
		case mutPort:
			scale := (1 + 2e-6) / slices.Max(steady.PortLoads(p, sol.EdgeRate))
			for id := range mut.EdgeRate {
				mut.EdgeRate[id] *= scale
			}
		case mutZeroPrices:
			mut.PortDual = make([]float64, len(sol.PortDual))
		case mutScaled:
			for id := range mut.EdgeRate {
				mut.EdgeRate[id] *= 1 - 2e-6
			}
			mut.Throughput *= 1 - 2e-6
		}
		if lower, upper, err := steady.Certify(q, 0, &mut); err == nil {
			t.Fatalf("%s:%d seed %d: mutation %d certified in [%v, %v]", s.Name, n, seed, kind%numMutations, lower, upper)
		}
	})
}

// tightestMinCut returns the links crossing a minimum cut of the destination
// the rates deliver the least to.
func tightestMinCut(p *platform.Platform, source int, rates []float64) []int {
	nw := maxflow.New(p.NumNodes())
	for id, rate := range rates {
		l := p.Link(id)
		nw.AddEdge(l.From, l.To, rate)
	}
	tightest, least := -1, math.Inf(1)
	for w := 0; w < p.NumNodes(); w++ {
		if w == source {
			continue
		}
		nw.Reset()
		if f := nw.MaxFlow(source, w); f < least {
			tightest, least = w, f
		}
	}
	nw.Reset()
	nw.MaxFlow(source, tightest)
	side := nw.MinCutSourceSide(source)
	var cut []int
	for id := range rates {
		if l := p.Link(id); side[l.From] && !side[l.To] {
			cut = append(cut, id)
		}
	}
	return cut
}
