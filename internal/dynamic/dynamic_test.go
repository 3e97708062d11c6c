package dynamic

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/topology"
)

// churnPlatform builds a mid-size random platform with enough redundancy
// for every event category.
func churnPlatform(t *testing.T, nodes int, seed int64) *platform.Platform {
	t.Helper()
	p, err := topology.Random(topology.DefaultRandomConfig(nodes, 0.3), topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateTraceDeterministic(t *testing.T) {
	p := churnPlatform(t, 16, 11)
	prof, err := ProfileByName(ProfileMixed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GenerateTrace(p, 0, prof, 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(p, 0, prof, 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same (platform, seed) produced different traces")
	}
	if len(a.Events) != 40 {
		t.Fatalf("trace has %d events, want 40", len(a.Events))
	}
	// The input platform must be untouched.
	if p.Mutated() {
		t.Fatal("GenerateTrace mutated the input platform")
	}
	// Different seeds must diverge.
	c, err := GenerateTrace(p, 0, prof, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateTraceKeepsPlatformBroadcastable(t *testing.T) {
	p := churnPlatform(t, 16, 5)
	prof, err := ProfileByName(ProfileFailures)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(p, 0, prof, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	shadow := p.Clone()
	last := math.Inf(-1)
	for i, ev := range tr.Events {
		if ev.Time < last {
			t.Fatalf("event %d out of order: %v < %v", i, ev.Time, last)
		}
		last = ev.Time
		if _, err := shadow.ApplyDelta(ev.Delta); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev.Delta, err)
		}
		if err := shadow.ValidateLive(0); err != nil {
			t.Fatalf("event %d (%v) broke broadcastability: %v", i, ev.Delta, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName(""); err != nil {
		t.Fatalf("empty name should select the default profile: %v", err)
	}
	if _, err := ProfileByName("no-such-profile"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, name := range ProfileNames() {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("listed profile %q not resolvable: %v", name, err)
		}
	}
}

// TestRunPolicyProperties is the core churn property test: after every
// event, each policy's tree must be a spanning tree of the live nodes
// (acyclic by the arborescence structure ValidateLive checks) unless the
// policy is reported broken, and its throughput must not exceed the
// re-solved optimum.
func TestRunPolicyProperties(t *testing.T) {
	p := churnPlatform(t, 14, 21)
	prof, err := ProfileByName(ProfileFailures)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(p, 0, prof, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	shadow := p.Clone()
	idx := 0
	cfg := Config{
		OnEvent: func(ev EventOutcome, trees PolicyTrees) {
			if _, err := shadow.ApplyDelta(tr.Events[idx].Delta); err != nil {
				t.Fatalf("event %d: %v", idx, err)
			}
			idx++
			for name, tree := range map[string]*platform.Tree{
				PolicyRepair:  trees.Repair,
				PolicyRebuild: trees.Rebuild,
			} {
				if err := tree.ValidateLive(shadow); err != nil {
					t.Errorf("event %d: %s tree invalid: %v", ev.Index, name, err)
				}
			}
			// The keep tree must be live-valid exactly when not broken.
			keepErr := trees.Keep.ValidateLive(shadow)
			keepBroken := ev.Policies[0].Broken
			if (keepErr == nil) == keepBroken {
				t.Errorf("event %d: keep broken=%v but ValidateLive=%v", ev.Index, keepBroken, keepErr)
			}
			for _, po := range ev.Policies {
				if po.Throughput > ev.Optimal*(1+1e-6) {
					t.Errorf("event %d: %s throughput %v exceeds optimum %v", ev.Index, po.Policy, po.Throughput, ev.Optimal)
				}
				if po.Ratio < 0 || po.Ratio > 1+1e-6 {
					t.Errorf("event %d: %s ratio %v outside [0, 1]", ev.Index, po.Policy, po.Ratio)
				}
			}
		},
	}
	rep, err := Run(p, 0, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != len(tr.Events) {
		t.Fatalf("report has %d events, want %d", len(rep.Events), len(tr.Events))
	}
	// Lost slices must be monotone non-decreasing per policy.
	for pi := range PolicyNames() {
		last := 0.0
		for _, ev := range rep.Events {
			if ev.Policies[pi].LostSlices < last-1e-9 {
				t.Errorf("policy %s lost slices decreased: %v -> %v", ev.Policies[pi].Policy, last, ev.Policies[pi].LostSlices)
			}
			last = ev.Policies[pi].LostSlices
		}
	}
	// The input platform must be untouched (Run clones).
	if p.Mutated() {
		t.Fatal("Run mutated the input platform")
	}
	// Summaries line up with policies.
	if len(rep.Summary) != 3 {
		t.Fatalf("summary has %d entries", len(rep.Summary))
	}
	for i, name := range PolicyNames() {
		if rep.Summary[i].Policy != name {
			t.Errorf("summary[%d] = %q, want %q", i, rep.Summary[i].Policy, name)
		}
	}
	// The rebuild policy should never be broken, and repair must reattach
	// something over a failure-heavy trace.
	if rep.Summary[2].BrokenEvents != 0 {
		t.Errorf("rebuild policy broken %d times", rep.Summary[2].BrokenEvents)
	}
	if rep.Summary[1].Reattached == 0 {
		t.Error("repair policy never reattached a node over a failure-heavy trace")
	}
}

// TestRunDeterministic two runs of the same (platform, trace) must produce
// byte-identical JSON reports.
func TestRunDeterministic(t *testing.T) {
	p := churnPlatform(t, 12, 8)
	prof, err := ProfileByName(ProfileMixed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(p, 0, prof, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(p, 0, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, 0, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("identical runs produced different reports")
	}
}

// TestRunWarmMatchesColdResolve the incremental session and the per-event
// cold oracle must agree on every event's optimum.
func TestRunWarmMatchesColdResolve(t *testing.T) {
	p := churnPlatform(t, 12, 13)
	prof, err := ProfileByName(ProfileMixed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(p, 0, prof, 25, 6)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(p, 0, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(p, 0, tr, Config{ColdResolve: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Events {
		w, c := warm.Events[i].Optimal, cold.Events[i].Optimal
		rel := math.Abs(w-c) / math.Max(c, 1e-12)
		if rel > 1e-6 {
			t.Errorf("event %d: warm optimum %v vs cold %v (rel %v)", i, w, c, rel)
		}
	}
	if warm.LP.WarmResolves == 0 {
		t.Error("warm run reports no warm resolves over a drift-heavy trace")
	}
}
