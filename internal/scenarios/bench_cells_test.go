package scenarios

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pack"
	"repro/internal/steady"
	"repro/internal/topology"
)

// benchCell is one family:size of the benchmark's cold workloads with the
// pinned pool instances it plans; trees > 0 marks a k-tree (packing) cell.
type benchCell struct {
	family string
	size   int
	inst   []int
	trees  int
}

// benchColdCells lists the cells of the benchmark's cold-sep, cold-lp and
// pack-ktree workloads (bench/workloads.go), instance for instance.
var benchColdCells = []benchCell{
	// cold-sep
	{NameRing, 512, []int{2, 4}, 0},
	{NameRing, 256, []int{3}, 0},
	{NameClusters, 512, []int{0, 1, 2}, 0},
	{NameChain, 512, []int{0, 1}, 0},
	// cold-lp
	{NameRandomDense, 80, []int{0}, 0},
	{NameGrid, 81, []int{0, 3, 1}, 0},
	{NameRandomDense, 64, []int{0, 1}, 0},
	{NameRandomSparse, 96, []int{4}, 0},
	{NameTiers, 224, []int{0}, 0},
	{NameGrid, 64, []int{3}, 0},
	// pack-ktree
	{NameTiers, 192, []int{1}, 256},
	{NameHomogeneous, 48, []int{0}, 256},
	{NameRandomSparse, 64, []int{2, 1}, 256},
	{NameTiers, 160, []int{0}, 256},
	{NameRandomDense, 48, []int{1, 0, 2}, 256},
	{NameRandomDense, 64, []int{2}, 256},
	{NameHomogeneous, 44, []int{0}, 256},
	{NameHomogeneous, 40, []int{0}, 256},
}

// TestBenchColdCellsCertify holds every platform the benchmark's cold
// workloads plan to the two-sided certificate, which the benchmark's own
// verifier (rates ≥ TP, UB ≥ TP) cannot see: each instance, generated with
// the benchmark's pinned seed topology.DeriveSeed(7, "bench/<family>:<size>",
// i), solves, passes steady.Certify, and starts its master from an accepted
// crash basis; a k-tree cell's optimum also packs into at most 256 trees
// within 1e-6. cluster-of-clusters:512 #1 is the instance the former 1e-5
// gap exit under-reported by 1.65e-6.
func TestBenchColdCellsCertify(t *testing.T) {
	const source = 0
	for _, c := range benchColdCells {
		for _, i := range c.inst {
			name := fmt.Sprintf("%s:%d#%d", c.family, c.size, i)
			t.Run(name, func(t *testing.T) {
				s, err := Get(c.family)
				if err != nil {
					t.Fatal(err)
				}
				p, err := s.Generate(c.size, topology.DeriveSeed(7, fmt.Sprintf("bench/%s:%d", c.family, c.size), i))
				if err != nil {
					t.Fatal(err)
				}
				sol, err := steady.Solve(p, source, nil)
				if err != nil {
					t.Fatal(err)
				}
				if sol.CrashRejects != 0 {
					t.Errorf("%d crash bases rejected", sol.CrashRejects)
				}
				assertCertified(t, p, source, sol, name)
				if c.trees == 0 {
					return
				}
				pk, err := pack.Decompose(p, source, sol, &pack.Options{MaxTrees: c.trees})
				if err != nil {
					t.Fatalf("pack: %v", err) // pack.ErrNotPacked above all
				}
				tol := 1e-6 * math.Max(1, sol.Throughput)
				if err := pk.Validate(p, sol.EdgeRate, tol); err != nil {
					t.Errorf("packing: %v", err)
				}
				if gap := sol.Throughput - pk.Throughput; pk.Truncated || math.Abs(gap) > tol {
					t.Errorf("%d trees pack %v (truncated %v), LP optimum %v", pk.NumTrees(), pk.Throughput, pk.Truncated, sol.Throughput)
				}
			})
		}
	}
}
