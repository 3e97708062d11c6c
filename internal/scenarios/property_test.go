package scenarios

import (
	"testing"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/steady"
	"repro/internal/throughput"
)

// TestTreePropertiesAcrossRegistry is the property-based harness of the
// registry: for every registered scenario family and every registered
// heuristic, the returned tree must be a spanning tree rooted at the source
// with no cycles, and its one-port steady-state throughput must not exceed
// the one-port MTP optimum (the LP upper bound applies to every broadcast
// schedule, hence to every single tree).
func TestTreePropertiesAcrossRegistry(t *testing.T) {
	const (
		source = 0
		seed   = 11
	)
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			size := testSize(s)
			p, err := s.Generate(size, seed)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			opt, err := steady.Solve(p, source, nil)
			if err != nil {
				t.Fatalf("steady-state LP: %v", err)
			}
			if opt.Throughput <= 0 {
				t.Fatalf("non-positive optimal throughput %v", opt.Throughput)
			}
			for _, name := range heuristics.Names() {
				builder, err := heuristics.ByNameWithRates(name, opt.EdgeRate)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tree, err := builder.Build(p, source)
				if err != nil {
					t.Errorf("%s: build: %v", name, err)
					continue
				}
				// Spanning out-arborescence rooted at the source: matching
				// sizes, per-node parents over real platform links, full
				// reachability from the root.
				if tree.Root != source {
					t.Errorf("%s: tree rooted at %d, want %d", name, tree.Root, source)
				}
				if err := tree.Validate(p); err != nil {
					t.Errorf("%s: invalid tree: %v", name, err)
					continue
				}
				// No cycles: every node has a finite root-to-node path.
				for v := 0; v < p.NumNodes(); v++ {
					if tree.Depth(v) < 0 {
						t.Errorf("%s: node %d unreachable or on a cycle", name, v)
					}
				}
				// The LP optimum bounds every tree's one-port throughput.
				tp := throughput.TreeThroughput(p, tree, model.OnePortBidirectional)
				if tp <= 0 {
					t.Errorf("%s: non-positive tree throughput %v", name, tp)
				}
				if tp > opt.Throughput*(1+1e-6)+1e-9 {
					t.Errorf("%s: tree throughput %v exceeds LP optimum %v", name, tp, opt.Throughput)
				}
			}
		})
	}
}

// TestThroughputNeverExceedsMasterUpperBound is the invariant that protects
// the cutting-plane termination: the reported throughput may never exceed
// the final master LP value.
func TestThroughputNeverExceedsMasterUpperBound(t *testing.T) {
	const source = 0
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 19} {
				p, err := s.Generate(testSize(s), seed)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				opt, err := steady.Solve(p, source, nil)
				if err != nil {
					t.Fatalf("steady-state LP: %v", err)
				}
				if opt.UpperBound <= 0 {
					t.Fatalf("seed %d: non-positive master upper bound %v", seed, opt.UpperBound)
				}
				if opt.Throughput > opt.UpperBound*(1+1e-9)+1e-12 {
					t.Errorf("seed %d: throughput %v exceeds master upper bound %v", seed, opt.Throughput, opt.UpperBound)
				}
			}
		})
	}
}

// TestRoutingThroughputBoundedByOptimum extends the LP-bound property to the
// routed schedule of the binomial heuristic, whose logical transfers follow
// multi-hop paths and contend for links and ports.
func TestRoutingThroughputBoundedByOptimum(t *testing.T) {
	const source = 0
	for _, name := range []string{NameStar, NameClusters, NameRandomSparse, NameTiers} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Generate(testSize(s), 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt, err := steady.Solve(p, source, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		routing, err := heuristics.Binomial{}.BuildRouting(p, source)
		if err != nil {
			t.Fatalf("%s: binomial routing: %v", name, err)
		}
		tp := throughput.RoutingThroughput(p, routing, model.OnePortBidirectional)
		if tp > opt.Throughput*(1+1e-6)+1e-9 {
			t.Errorf("%s: routed binomial throughput %v exceeds LP optimum %v", name, tp, opt.Throughput)
		}
	}
}
