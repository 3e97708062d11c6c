package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmokeSuite runs every workload at smoke scale, untraced and traced,
// through the code paths of a full run: every named metric must come out
// once with its unit, every plan must verify (which includes the engine
// counters matching the schedule), and the result line must survive an
// encoding/json round trip byte for byte.
func TestSmokeSuite(t *testing.T) {
	ev := newEnv()
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			e2e, err := measure(ctx, ev, w, 7, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			layer, err := traced(ctx, ev, w, 7, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				r     *runResult
				specs []metricSpec
			}{{e2e, endToEnd}, {layer, perLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted < 1 {
					var buf bytes.Buffer
					c.r.print(&buf, c.specs)
					t.Fatalf("run is not clean:\n%s", buf.String())
				}
				if len(c.r.Metrics) != len(c.specs) {
					t.Errorf("%d metrics emitted, %d specified", len(c.r.Metrics), len(c.specs))
				}
				for _, s := range c.specs {
					m, ok := c.r.Metrics[s.Name]
					if !ok {
						t.Errorf("metric %s not emitted", s.Name)
					}
					if m.Unit != s.Unit || m.Unit == "" {
						t.Errorf("metric %s has unit %q, want %q", s.Name, m.Unit, s.Unit)
					}
					if !nameRE.MatchString(s.Name) {
						t.Errorf("metric name %q", s.Name)
					}
				}
				line := c.r.resultLine()
				var back struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &back); err != nil {
					t.Fatal(err)
				}
				again, err := json.Marshal(back)
				if err != nil {
					t.Fatal(err)
				}
				if string(again) != line {
					t.Errorf("result line does not round-trip:\n%s\n%s", line, again)
				}
			}
			if got := e2e.Metrics["verified_share"].Value; got != 1 {
				t.Errorf("verified_share = %v at smoke scale", got)
			}
			for _, s := range endToEnd {
				if e2e.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", s.Name, e2e.Metrics[s.Name].Value)
				}
			}
		})
	}
}

// TestContractFile keeps BENCHMARK.json in step with the metric and workload
// tables of the program.
func TestContractFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, c.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s breaks the contract's limits", w.Name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// TestCompareBounds pins -compare: a metric worse beyond its bound is a
// regression, one within it is not, and a better one never is.
func TestCompareBounds(t *testing.T) {
	suite := func(wall, ops float64) *suiteResult {
		return &suiteResult{Workloads: map[string]map[string]metric{"cold-sep": {
			"wall_s":    {Value: wall, Unit: "s"},
			"ops_per_s": {Value: ops, Unit: "1/s"},
		}}}
	}
	base := suite(2, 4)
	for _, c := range []struct {
		name      string
		wall, ops float64
		want      int
	}{
		{"same", 2, 4, 0},
		{"within", 2.25, 3.5, 0},
		{"better", 1, 8, 0},
		{"wall worse", 2.4, 4, 1},
		{"both worse", 2.4, 3.3, 2},
	} {
		if got, _ := compare(io.Discard, base, suite(c.wall, c.ops)); got != c.want {
			t.Errorf("%s: %d regressions, want %d", c.name, got, c.want)
		}
	}
}

// TestSuiteRoundTrip: a suite file written, read and written again is
// byte-identical (the export, import, export idiom), so baseline.json can be
// regenerated and diffed.
func TestSuiteRoundTrip(t *testing.T) {
	s := &suiteResult{Machine: "m", Go: "go", NumCPU: 2, Clients: 2, Seed: 7, Seconds: 12, Scale: "full",
		Workloads: map[string]map[string]metric{"w": {"wall_s": {Value: 1.0 / 3, Unit: "s"}}},
		Failures:  map[string][]failure{"w": {{Cell: "c", Key: "k", Class: "miss", Reason: "r"}}}}
	dir := t.TempDir()
	a, b := dir+"/a.json", dir+"/b.json"
	if err := s.write(a); err != nil {
		t.Fatal(err)
	}
	back, err := readSuite(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.write(b); err != nil {
		t.Fatal(err)
	}
	x, _ := os.ReadFile(a)
	y, _ := os.ReadFile(b)
	if !bytes.Equal(x, y) || len(x) == 0 {
		t.Errorf("suite file does not round-trip:\n%s\n%s", x, y)
	}
}
