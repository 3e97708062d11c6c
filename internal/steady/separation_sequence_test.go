package steady_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenarios"
	"repro/internal/steady"
)

// Regenerate (only when the cut policy itself is meant to change — CI never
// passes the flag, and a kernel or bookkeeping change must not need it):
//
//	go test ./internal/steady -run SeparationSequence -update
var updateSequence = flag.Bool("update", false, "rewrite the separation-sequence golden")

// sequenceCell is the observable trace of one cutting-plane solve. Every
// field is a count or a bit pattern, so the comparison is exact: the same
// rounds, the same cuts in the same order (a different order changes the
// perturbed right-hand sides and so the pivots) and the same throughput bits.
type sequenceCell struct {
	Cell           string `json:"cell"`
	Master         string `json:"master"`
	Rounds         int    `json:"rounds"`
	Cuts           int    `json:"cuts"`
	WarmPivots     int    `json:"warmPivots"`
	ColdPivots     int    `json:"coldPivots"`
	ThroughputBits string `json:"throughputBits"`
}

// TestSeparationSequenceGolden pins "same cut sequence": on every registry
// family at its default sizes, plus the three separation-bound large cells,
// the solver must reproduce the rounds, cuts, pivots and throughput bits
// captured before the separation kernel was rebuilt. Source 0, seed 7.
func TestSeparationSequenceGolden(t *testing.T) {
	const (
		source = 0
		seed   = 7
	)
	type cell struct {
		family string
		size   int
	}
	var cells []cell
	for _, s := range scenarios.All() {
		for _, size := range s.DefaultSizes {
			cells = append(cells, cell{s.Name, size})
		}
	}
	cells = append(cells,
		cell{scenarios.NameRing, 256},
		cell{scenarios.NameChain, 512},
		cell{scenarios.NameClusters, 512},
	)

	var got []sequenceCell
	for _, c := range cells {
		s, err := scenarios.Get(c.family)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Generate(c.size, seed)
		if err != nil {
			t.Fatalf("%s:%d: generate: %v", c.family, c.size, err)
		}
		sol, err := steady.Solve(p, source, nil)
		if err != nil {
			t.Fatalf("%s:%d: %v", c.family, c.size, err)
		}
		got = append(got, sequenceCell{
			Cell:           fmt.Sprintf("%s:%d", c.family, c.size),
			Master:         "revised",
			Rounds:         sol.Rounds,
			Cuts:           sol.Cuts,
			WarmPivots:     sol.WarmPivots,
			ColdPivots:     sol.ColdPivots,
			ThroughputBits: fmt.Sprintf("%016x", math.Float64bits(sol.Throughput)),
		})
	}

	path := filepath.Join("testdata", "golden", "separation_sequence.json")
	if *updateSequence {
		// One cell per line, so a diff of the golden names the cells.
		var b bytes.Buffer
		for i, c := range got {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			b.WriteString(sep)
			b.Write(line)
		}
		b.WriteString("\n]\n")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []sequenceCell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells solved, golden holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cut sequence changed:\n got %+v\nwant %+v", got[i], want[i])
		}
	}
}
