package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	broadcast "repro"
)

// Regenerate the golden reports after an intentional report-shape change:
//
//	go test ./cmd/bcast-churn -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// goldenChurn plays one small deterministic churn run into a temp file and
// compares it byte-for-byte against the named golden report.
func goldenChurn(t *testing.T, golden, scenario string, size int, seed int64, events int, profile string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "churn.json")
	err := run(scenario, size, seed, 0, events, profile, broadcast.LPGrowTree, "one-port",
		false, false, out, true, true)
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
		t.Errorf("churn report differs from %s.\nThis usually means the JSON report shape or the deterministic numbers changed.\nIf the change is intentional, regenerate with: go test ./cmd/bcast-churn -run Golden -update\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}
}

// TestGoldenChurnReport pins the byte-exact JSON report of a small
// fixed-seed churn run (trace, per-event policy outcomes, summaries).
func TestGoldenChurnReport(t *testing.T) {
	goldenChurn(t, "churn_lastmile.json", "last-mile", 12, 7, 10, "")
}

// TestGoldenChurnFlakyLinksReport pins a second profile so profile-specific
// report fields stay covered.
func TestGoldenChurnFlakyLinksReport(t *testing.T) {
	goldenChurn(t, "churn_clusters_flaky.json", "cluster-of-clusters", 16, 3, 8, "flaky-links")
}
