package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Regenerate the golden reports after an intentional report-shape change:
//
//	go test ./cmd/bcast-sweep -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// goldenSweep runs one small deterministic sweep into a temp file and
// compares it byte-for-byte against the named golden report.
func goldenSweep(t *testing.T, golden string, scenarios, sizes, heuristics string, reps int, seed int64, churn bool, packTrees int) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "sweep.json")
	err := run(scenarios, sizes, heuristics, reps, seed, 0, "one-port", 2, packTrees,
		churn, 6, "", "", false, out, true, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", golden)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep report differs from %s.\nThis usually means the JSON report shape or the deterministic numbers changed.\nIf the change is intentional, regenerate with: go test ./cmd/bcast-sweep -run Golden -update\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}
}

// TestGoldenSweepReport pins the byte-exact JSON report of a small
// fixed-seed sweep, so report-shape regressions (renamed fields, reordered
// runs, float formatting drift) are caught before consumers see them.
func TestGoldenSweepReport(t *testing.T) {
	goldenSweep(t, "sweep_star_chain.json", "star,chain", "8", "prune-simple,lp-grow-tree", 2, 7, false, 0)
}

// TestGoldenSweepChurnReport pins the report with the churn dimension
// enabled (per-run churn outcomes plus per-cell churn aggregates).
func TestGoldenSweepChurnReport(t *testing.T) {
	goldenSweep(t, "sweep_churn_lastmile.json", "last-mile", "10", "lp-grow-tree", 1, 11, true, 0)
}

// TestGoldenSweepPackReport pins the report with the k-tree packing axis
// enabled (packed throughput / tree count / gain columns on runs, packed
// means on aggregates).
func TestGoldenSweepPackReport(t *testing.T) {
	goldenSweep(t, "sweep_pack_ring_grid.json", "ring,grid", "9", "prune-simple,lp-grow-tree", 2, 7, false, 32)
}
