package load

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// replayTraced compiles and replays a mix against a fresh gated in-process
// engine and returns the report plus the full deterministic trace dump
// (marshaled snapshot, sorted by content-derived ID).
func replayTraced(t *testing.T, mixName string, seed int64, workers int) (*Schedule, *Report, []*obs.Trace, []byte) {
	t.Helper()
	mix, err := MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(mix, seed)
	if err != nil {
		t.Fatal(err)
	}
	engine, gate := NewInProcessEngine(sched, 0)
	rep, err := Run(engine, sched, Options{Workers: workers, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	traces := engine.Tracer().Snapshot("", 0)
	dump, err := json.MarshalIndent(traces, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return sched, rep, traces, dump
}

// TestReplayTraceDeterminismAcrossWorkers is the tracing acceptance
// criterion: an in-process replay on the virtual clock produces a
// byte-identical trace dump — IDs, outcomes, and every span event sequence —
// for worker counts 1, 4 and 16, for both the all-pattern smoke mix and the
// overload mix (sheds, degraded answers, background refines).
func TestReplayTraceDeterminismAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		mix   string
		seed  int64
		packs bool // the mix has a phase asking for k-tree plans
	}{
		{mix: "smoke", seed: 7, packs: true},
		{mix: "overload", seed: 42},
	} {
		t.Run(tc.mix, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, 4, 16} {
				_, _, _, dump := replayTraced(t, tc.mix, tc.seed, workers)
				if ref == nil {
					ref = dump
					// The separation counts (fresh flows, chain-certified
					// destinations) are on the deterministic side of the
					// solve span, the separation wall is not.
					if !bytes.Contains(dump, []byte(`"flows"`)) || !bytes.Contains(dump, []byte(`"certified"`)) || bytes.Contains(dump, []byte(`"sepNs"`)) {
						t.Fatalf("dump should carry solve-span separation counts and no separation wall:\n%s", dump)
					}
					// Likewise the packing: rounds and pivots are counts, its
					// wall is a wall.
					if bytes.Contains(dump, []byte(`"packRounds"`)) != tc.packs || bytes.Contains(dump, []byte(`"packNs"`)) {
						t.Fatalf("dump should carry packing rounds exactly when the mix packs (%v), and no packing wall:\n%s", tc.packs, dump)
					}
					// The cold-solve count is a count: on the deterministic
					// side, byte-identical across worker counts with the rest.
					if !bytes.Contains(dump, []byte(`"coldSolves": 1`)) {
						t.Fatalf("dump should carry the solve spans' cold master solve counts:\n%s", dump)
					}
					continue
				}
				if !bytes.Equal(dump, ref) {
					t.Fatalf("workers=%d: trace dump differs from workers=1 dump:\n%s\n--- want ---\n%s", workers, dump, ref)
				}
			}
		})
	}
}

// TestReplayTraceContents checks what the deterministic replay traces carry:
// outcome counts matching the compile-time expectations, no wall-clock
// fields, and the report's solveStages/traces section wired from the engine.
func TestReplayTraceContents(t *testing.T) {
	sched, rep, traces, _ := replayTraced(t, "overload", 42, 4)

	wantTraces := sched.Requests + sched.Expect.Degraded // one refine trace per degraded answer
	if len(traces) != wantTraces || rep.Traces != wantTraces {
		t.Fatalf("trace count = %d (report %d), want %d (requests %d + refines %d)",
			len(traces), rep.Traces, wantTraces, sched.Requests, sched.Expect.Degraded)
	}

	byOutcome := map[string]int{}
	seenIDs := map[string]bool{}
	for _, tr := range traces {
		byOutcome[tr.Outcome]++
		if tr.ID == "" || seenIDs[tr.ID] {
			t.Fatalf("trace ID %q empty or duplicated", tr.ID)
		}
		seenIDs[tr.ID] = true
		if tr.StartNs != 0 || tr.DurNs != 0 {
			t.Fatalf("deterministic trace %s carries wall-clock fields: %+v", tr.ID, tr)
		}
		if len(tr.Events) == 0 {
			t.Fatalf("trace %s has no events", tr.ID)
		}
		for _, ev := range tr.Events {
			if ev.TNs != 0 || ev.DurNs != 0 || ev.SepNs != 0 || ev.PackNs != 0 {
				t.Fatalf("deterministic trace %s event stamped with wall clock: %+v", tr.ID, ev)
			}
			if ev.Kind == obs.SpanSolve && ev.Err == "" && ev.Flows+ev.Certified <= 0 {
				t.Fatalf("deterministic trace %s: solve span without its separation flow count: %+v", tr.ID, ev)
			}
			// Every solve of the overload mix is a cold plan on a healthy
			// master: the first master solve cold, the rest warm.
			if (ev.Kind == obs.SpanSolve || ev.Kind == obs.SpanRefine) && ev.Err == "" && ev.ColdSolves != 1 {
				t.Fatalf("deterministic trace %s: %s span counts %d cold master solves, want 1: %+v", tr.ID, ev.Kind, ev.ColdSolves, ev)
			}
			if ev.Kind == obs.SpanQueueWait {
				t.Fatalf("deterministic trace %s carries a queue-wait span (wall-only): %+v", tr.ID, tr.Events)
			}
		}
	}
	exp := sched.Expect
	want := map[string]int{
		obs.OutcomeShed:      exp.Shed,
		obs.OutcomeDegraded:  exp.Degraded,
		obs.OutcomeRefine:    exp.Degraded,
		obs.OutcomeMiss:      exp.Misses - exp.Shed - exp.Degraded,
		obs.OutcomeCollapsed: exp.Collapsed,
		obs.OutcomeHit:       exp.Hits - exp.Collapsed,
	}
	for outcome, n := range want {
		if byOutcome[outcome] != n {
			t.Errorf("outcome %q: %d traces, want %d (all: %v)", outcome, byOutcome[outcome], n, byOutcome)
		}
	}

	if rep.SolveStages == nil {
		t.Fatal("in-process report missing solveStages")
	}
	if got, wantSolves := rep.SolveStages.Pivots.Count, rep.Total.Engine.Solves; got != wantSolves {
		t.Errorf("solveStages pivots count = %d, want one sample per solve (%d)", got, wantSolves)
	}
	if rep.SolveStages.Pivots.P50 <= 0 {
		t.Errorf("solveStages pivots p50 = %d, want > 0", rep.SolveStages.Pivots.P50)
	}

	// A shed trace must show the admission rejection, never a solve.
	for _, tr := range traces {
		if tr.Outcome != obs.OutcomeShed {
			continue
		}
		last := tr.Events[len(tr.Events)-1]
		if last.Kind != obs.SpanAdmit || last.Admitted != "shed" {
			t.Fatalf("shed trace %s does not end with a shed admit span: %+v", tr.ID, tr.Events)
		}
	}
}

// TestHTTPReportSkipsInProcessSections pins that an HTTP-mode report carries
// neither solveStages nor a trace count (the hooks are in-process only).
func TestHTTPReportSkipsInProcessSections(t *testing.T) {
	var p HTTPPlanner
	if _, ok := interface{}(p).(interface{ Tracer() *obs.Tracer }); ok {
		t.Fatal("HTTPPlanner unexpectedly exposes a tracer")
	}
}
