package pack_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pack"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/steady"
)

// cellPrefix switches fuzzPlatform from its byte-built ring to a platform of
// the repo benchmark: the three bytes after it pick the registry family, the
// size (clamped to the family's minimum and 64) and the benchmark instance.
// It is how a registry-scale failure becomes a corpus entry.
const cellPrefix = "cell:"

// fuzzCell decodes the bytes after cellPrefix.
func fuzzCell(data []byte) benchCell {
	var b [3]byte
	copy(b[:], data)
	all := scenarios.All()
	s := all[int(b[0])%len(all)]
	size := int(b[1])
	if size < s.MinSize {
		size = s.MinSize
	}
	if size > 64 {
		size = 64
	}
	return benchCell{family: s.Name, size: size, inst: int(b[2])}
}

// cellSeed is the corpus entry of a benchmark cell.
func cellSeed(c benchCell) []byte {
	for i, s := range scenarios.All() {
		if s.Name == c.family {
			return append([]byte(cellPrefix), byte(i), byte(c.size), byte(c.inst))
		}
	}
	panic(fmt.Sprintf("no registry family %q", c.family))
}

// fuzzPlatform derives a small deterministic platform from the input bytes:
// a bidirectional ring (always broadcastable from any node) plus a few
// chords, with link costs driven by the bytes. It mirrors the pattern of
// internal/platform's fuzz harness so corpus entries stress the same shape
// space.
func fuzzPlatform(data []byte) (*platform.Platform, int) {
	n := 4
	if len(data) > 0 {
		n = 4 + int(data[0])%6 // 4..9 nodes
		data = data[1:]
	}
	take := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := platform.New(n)
	for u := 0; u < n; u++ {
		cost := model.AffineCost{PerUnit: 0.25 + float64(take())/64}
		p.MustAddLink(u, (u+1)%n, cost)
		p.MustAddLink((u+1)%n, u, cost)
	}
	chords := int(take()) % 5
	for c := 0; c < chords; c++ {
		from := int(take()) % n
		to := int(take()) % n
		if from == to {
			continue
		}
		p.MustAddLink(from, to, model.AffineCost{Latency: float64(take()) / 256, PerUnit: 0.5 + float64(take())/64})
	}
	source := int(take()) % n
	return p, source
}

// FuzzTreePacking solves every derived platform and decomposes the optimal
// edge rates, checking the full packing contract: validity of every tree,
// positive weights summing to the achieved throughput, per-edge and
// one-port capacity bounds, the 1e-6 gap to the LP optimum, and bitwise
// determinism across repeated decompositions.
func FuzzTreePacking(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("steady-state broadcast"))
	f.Add([]byte{3, 10, 20, 30, 40, 2, 1, 3, 9, 200, 100, 50})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 4, 1, 2, 64, 128, 2, 3, 16, 32})
	f.Add([]byte{1, 255, 254, 253, 252, 251, 250, 3, 0, 2, 8, 8, 1, 3, 99, 7})
	// ErrNotPacked until the column-generation round cap went: still climbing
	// at round 508, at the LP throughput by round 557.
	f.Add(cellSeed(formerKnownFailure))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *platform.Platform
		var source int
		var sol *steady.Solution
		if rest, ok := bytes.CutPrefix(data, []byte(cellPrefix)); ok {
			p, sol = fuzzCell(rest).solve(t)
		} else {
			p, source = fuzzPlatform(data)
			var err error
			// The ring keeps every platform broadcastable; a solver failure
			// here is a finding, not an invalid input.
			if sol, err = steady.Solve(p, source, nil); err != nil {
				t.Fatalf("solve: %v", err)
			}
		}
		pk, err := pack.Decompose(p, source, sol, nil)
		if err != nil {
			t.Fatalf("decompose: %v", err)
		}
		tol := 1e-6 * math.Max(1, sol.Throughput)
		if err := pk.Validate(p, sol.EdgeRate, tol); err != nil {
			t.Fatalf("invalid packing: %v", err)
		}
		if gap := sol.Throughput - pk.Throughput; math.Abs(gap) > tol {
			t.Fatalf("packed %v vs LP %v (gap %v)", pk.Throughput, sol.Throughput, gap)
		}
		first, err := json.Marshal(pk)
		if err != nil {
			t.Fatal(err)
		}
		again, err := pack.Decompose(p, source, sol, nil)
		if err != nil {
			t.Fatalf("second decompose: %v", err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("decomposition is not deterministic: repeated runs differ")
		}
	})
}
