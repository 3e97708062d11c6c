package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
)

// tracedEngine returns an engine with a deterministic tracer large enough
// that nothing is evicted mid-test.
func tracedEngine(cfg Config) *Engine {
	cfg.Tracer = obs.NewTracer(obs.Options{Capacity: 4096})
	return New(cfg)
}

func eventKinds(t *obs.Trace) []obs.SpanKind {
	kinds := make([]obs.SpanKind, len(t.Events))
	for i, ev := range t.Events {
		kinds[i] = ev.Kind
	}
	return kinds
}

// TestEngineTraceLifecycle walks one platform through miss, hit, and warm
// delta and checks the recorded traces: outcomes, span sequences, solve
// statistics, and the PlanResult trace IDs.
func TestEngineTraceLifecycle(t *testing.T) {
	e := tracedEngine(Config{Workers: 1})
	p := smallPlatform(t, 41)

	first, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if first.TraceID == "" {
		t.Fatal("miss result carries no trace ID")
	}
	hit, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if hit.TraceID == "" || hit.TraceID == first.TraceID {
		t.Fatalf("hit trace ID %q should be set and distinct from miss %q", hit.TraceID, first.TraceID)
	}
	delta, err := e.Plan(PlanRequest{
		Base:   first.Plan.Fingerprint,
		Deltas: []platform.Delta{{Kind: platform.DeltaScaleLink, Link: 0, Factor: 1.5}},
		Source: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.WarmResolved {
		t.Fatal("delta request was not warm")
	}

	misses := e.Tracer().Snapshot(obs.OutcomeMiss, 0)
	if len(misses) != 2 {
		t.Fatalf("miss traces = %d, want 2 (cold + delta)", len(misses))
	}
	var cold, warm *obs.Trace
	for _, tr := range misses {
		if len(tr.Events) > 0 && tr.Events[0].Kind == obs.SpanBase {
			warm = tr
		} else {
			cold = tr
		}
	}
	if cold == nil || warm == nil {
		t.Fatalf("could not classify miss traces: %v / %v", misses[0].Events, misses[1].Events)
	}
	wantCold := []obs.SpanKind{obs.SpanLookup, obs.SpanAdmit, obs.SpanSolve}
	if got := eventKinds(cold); len(got) != len(wantCold) || got[0] != wantCold[0] || got[1] != wantCold[1] || got[2] != wantCold[2] {
		t.Fatalf("cold miss span sequence = %v, want %v", got, wantCold)
	}
	if !cold.Events[0].Miss || cold.Events[1].Admitted != "admitted" {
		t.Fatalf("cold miss events malformed: %+v", cold.Events)
	}
	solve := cold.Events[2]
	if solve.Pivots <= 0 || solve.Rounds <= 0 {
		t.Fatalf("solve span has no LP stats: %+v", solve)
	}
	// Every round decides each destination once: by a fresh max-flow or by
	// the chained flow.
	if want := solve.Rounds * (first.Plan.Nodes - 1); solve.Flows+solve.Certified != want {
		t.Fatalf("solve span counts %d separation flows + %d certified, want %d: %+v", solve.Flows, solve.Certified, want, solve)
	}
	if solve.DurNs != 0 || solve.SepNs != 0 || cold.StartNs != 0 {
		t.Fatalf("deterministic trace leaked wall-clock fields: %+v", cold)
	}
	if solve.PackRounds != 0 || solve.PackPivots != 0 {
		t.Fatalf("trees=0 plan reports a packing on its solve span: %+v", solve)
	}
	// A healthy cold plan solves its first master cold and every later round
	// warm; the count is on the span and stays out of the plan's bytes.
	if solve.ColdSolves != 1 || first.Plan.LPColdSolves != 1 {
		t.Fatalf("cold plan's solve span counts %d cold master solves (plan %d), want 1: %+v", solve.ColdSolves, first.Plan.LPColdSolves, solve)
	}
	if bytes.Contains(first.JSON, []byte("oldSolves")) {
		t.Fatalf("cold-solve count leaked into the plan bytes: %s", first.JSON)
	}
	wantWarm := []obs.SpanKind{obs.SpanBase, obs.SpanLookup, obs.SpanAdmit, obs.SpanSolve}
	if got := eventKinds(warm); len(got) != len(wantWarm) || got[0] != obs.SpanBase {
		t.Fatalf("warm delta span sequence = %v, want %v", got, wantWarm)
	}
	if !warm.Events[0].Warm || !warm.Events[3].Warm {
		t.Fatalf("warm delta did not flag warm session: %+v", warm.Events)
	}
	if warm.Events[3].ColdSolves != 0 {
		t.Fatalf("warm delta re-solve counts %d cold master solves: %+v", warm.Events[3].ColdSolves, warm.Events[3])
	}

	hits := e.Tracer().Snapshot(obs.OutcomeHit, 0)
	if len(hits) != 1 {
		t.Fatalf("hit traces = %d, want 1", len(hits))
	}
	if got := eventKinds(hits[0]); len(got) != 1 || got[0] != obs.SpanLookup || hits[0].Events[0].Miss {
		t.Fatalf("hit span sequence = %v", hits[0].Events)
	}
	if hits[0].Key == "" || hits[0].Key != cold.Key {
		t.Fatalf("hit and miss of one platform should share the identity key: %q vs %q", hits[0].Key, cold.Key)
	}
}

// TestSolveSpanCarriesPackingCounts a k-tree plan's solve span reports what
// the packing that followed the resolve cost — the column-generation rounds
// and master pivots pack.Decompose recorded on the packing — and, on a
// deterministic tracer, not its wall.
func TestSolveSpanCarriesPackingCounts(t *testing.T) {
	e := tracedEngine(Config{Workers: 1})
	res, err := e.Plan(PlanRequest{Platform: smallPlatform(t, 31), Source: 0, Trees: 64})
	if err != nil {
		t.Fatal(err)
	}
	pk := res.Plan.Packing
	if pk == nil || pk.Rounds <= 0 || pk.MasterPivots <= 0 || pk.WallNanos <= 0 {
		t.Fatalf("packing carries no decomposition cost: %+v", pk)
	}
	traces := e.Tracer().Snapshot(obs.OutcomeMiss, 0)
	if len(traces) != 1 {
		t.Fatalf("miss traces = %d, want 1", len(traces))
	}
	solve := traces[0].Events[len(traces[0].Events)-1]
	if solve.Kind != obs.SpanSolve || solve.PackRounds != pk.Rounds || solve.PackPivots != pk.MasterPivots {
		t.Fatalf("solve span %+v, want the packing's %d rounds / %d pivots", solve, pk.Rounds, pk.MasterPivots)
	}
	if solve.PackNs != 0 {
		t.Fatalf("deterministic trace leaked the packing wall: %+v", solve)
	}
	// None of the three reaches the plan bytes.
	buf, err := json.Marshal(pk)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ounds", "ivots", "anos"} {
		if strings.Contains(string(buf), field) {
			t.Fatalf("packing JSON marshals a decomposition-cost field (%q): %s", field, buf)
		}
	}
}

// TestEngineTraceShedAndDegraded checks the overload-path outcomes: a shed
// request records an admit=shed span, a degraded request records the
// heuristic answer and its background refinement lands in its own trace.
func TestEngineTraceShedAndDegraded(t *testing.T) {
	block := make(chan struct{})
	admitCh := make(chan AdmitKind, 8)
	e := tracedEngine(Config{
		Workers:    1,
		QueueDepth: 1,
		CacheSize:  64,
		Hooks: &Hooks{
			BeforeSolve: func() { <-block },
			OnAdmit:     func(ev AdmitEvent) { admitCh <- ev.Kind },
		},
	})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Plan(PlanRequest{Platform: smallPlatform(t, int64(50+i)), Source: 0})
		}()
		if i == 0 {
			if k := <-admitCh; k != AdmitLane {
				t.Errorf("first admission = %v, want lane", k)
			}
		}
	}
	// The two contenders decide (one queues, one sheds) before the lane frees.
	for i := 0; i < 2; i++ {
		<-admitCh
	}
	close(block)
	wg.Wait()
	e.Drain()

	sheds := e.Tracer().Snapshot(obs.OutcomeShed, 0)
	if len(sheds) != 1 {
		t.Fatalf("shed traces = %d, want 1 (workers=1 queue=1, 3 concurrent solves)", len(sheds))
	}
	kinds := eventKinds(sheds[0])
	if len(kinds) != 2 || kinds[1] != obs.SpanAdmit || sheds[0].Events[1].Admitted != "shed" {
		t.Fatalf("shed span sequence = %v (%+v)", kinds, sheds[0].Events)
	}

	// Degraded request on a fresh engine (no blocked lanes).
	e2 := tracedEngine(Config{Workers: 2})
	res, err := e2.Plan(PlanRequest{Platform: smallPlatform(t, 77), Source: 0, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("degraded request did not degrade")
	}
	e2.Drain()
	deg := e2.Tracer().Snapshot(obs.OutcomeDegraded, 0)
	if len(deg) != 1 {
		t.Fatalf("degraded traces = %d, want 1", len(deg))
	}
	kinds = eventKinds(deg[0])
	if len(kinds) != 2 || kinds[0] != obs.SpanLookup || kinds[1] != obs.SpanDegraded || deg[0].Events[1].Heuristic == "" {
		t.Fatalf("degraded span sequence = %v (%+v)", kinds, deg[0].Events)
	}
	refines := e2.Tracer().Snapshot(obs.OutcomeRefine, 0)
	if len(refines) != 1 {
		t.Fatalf("refine traces = %d, want 1", len(refines))
	}
	if len(refines[0].Events) != 1 || refines[0].Events[0].Kind != obs.SpanRefine || refines[0].Events[0].Pivots <= 0 || refines[0].Events[0].ColdSolves != 1 {
		t.Fatalf("refine trace malformed: %+v", refines[0].Events)
	}
	if refines[0].Key != deg[0].Key {
		t.Fatalf("refine trace does not share the degraded request's identity: %q vs %q", refines[0].Key, deg[0].Key)
	}

	// The refine span carries the separation counters: every round, every
	// destination is either a fresh max-flow or certified by the chained one.
	rev := refines[0].Events[0]
	if alive := smallPlatform(t, 77).NumAliveNodes(); rev.Flows+rev.Certified != rev.Rounds*(alive-1) {
		t.Fatalf("refine span flows %d + certified %d != rounds %d x %d destinations", rev.Flows, rev.Certified, rev.Rounds, alive-1)
	}
	// It is the solve span of the same request served without degrading,
	// in every deterministic field but its kind.
	e3 := tracedEngine(Config{Workers: 2})
	if _, err := e3.Plan(PlanRequest{Platform: smallPlatform(t, 77), Source: 0}); err != nil {
		t.Fatal(err)
	}
	misses := e3.Tracer().Snapshot(obs.OutcomeMiss, 0)
	if len(misses) != 1 {
		t.Fatalf("miss traces = %d, want 1", len(misses))
	}
	var sev obs.Event
	for _, ev := range misses[0].Events {
		if ev.Kind == obs.SpanSolve {
			sev = ev
		}
	}
	sev.Kind = obs.SpanRefine
	if sev != rev {
		t.Fatalf("refine span %+v differs from the solve span %+v", rev, sev)
	}

	// A degraded k-tree request packs in its refinement, and the refine span
	// says what the packing cost.
	if _, err := e2.Plan(PlanRequest{Platform: smallPlatform(t, 78), Source: 0, Trees: 4, Degraded: true}); err != nil {
		t.Fatal(err)
	}
	e2.Drain()
	refines = e2.Tracer().Snapshot(obs.OutcomeRefine, 0)
	if len(refines) != 2 {
		t.Fatalf("refine traces = %d, want 2", len(refines))
	}
	packed := 0
	for _, tr := range refines {
		if tr.Events[0].PackRounds > 0 {
			packed++
		}
	}
	if packed != 1 {
		t.Fatalf("refine spans with packing rounds = %d, want 1 (the trees=4 request): %+v, %+v", packed, refines[0].Events, refines[1].Events)
	}
}

// TestEngineTraceCanceled checks that a request canceled before admission
// records a cancel span and finishes with the canceled outcome.
func TestEngineTraceCanceled(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	e := tracedEngine(Config{Workers: 1, Hooks: &Hooks{BeforeSolve: func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
	}}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Plan(PlanRequest{Platform: smallPlatform(t, 91), Source: 0})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.PlanContext(ctx, PlanRequest{Platform: smallPlatform(t, 92), Source: 0})
	if err == nil {
		t.Fatal("canceled request succeeded")
	}
	close(block)
	wg.Wait()
	canceledTraces := e.Tracer().Snapshot(obs.OutcomeCanceled, 0)
	if len(canceledTraces) != 1 {
		t.Fatalf("canceled traces = %d, want 1", len(canceledTraces))
	}
	kinds := eventKinds(canceledTraces[0])
	if len(kinds) != 2 || kinds[1] != obs.SpanCancel || canceledTraces[0].Events[1].At != "queue" {
		t.Fatalf("canceled span sequence = %v (%+v)", kinds, canceledTraces[0].Events)
	}
}

// TestEngineTraceDeterministicDump replays the same request set twice and
// checks the marshaled trace dumps are byte-identical (the engine-level face
// of the acceptance criterion; the cross-worker-count variant lives in
// internal/load).
func TestEngineTraceDeterministicDump(t *testing.T) {
	run := func() []byte {
		e := tracedEngine(Config{Workers: 2})
		for i := 0; i < 3; i++ {
			p := smallPlatform(t, int64(100+i%2)) // two distinct platforms, one repeat
			if _, err := e.Plan(PlanRequest{Platform: p, Source: 0}); err != nil {
				t.Fatal(err)
			}
		}
		b, err := json.Marshal(e.Tracer().Snapshot("", 0))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("trace dumps differ across identical runs:\n%s\n---\n%s", a, b)
	}
}

// TestConcurrentHooksAndSpans is the race-mode satellite: hooks and span
// emission firing concurrently from lookup (under the engine lock), admit,
// and solve paths must not deadlock or lose events, and the hook-side event
// counts must agree exactly with the engine counters and the trace ring.
func TestConcurrentHooksAndSpans(t *testing.T) {
	var lookups, collapsed, misses, admits atomic.Int64
	cfg := Config{
		Workers: 4,
		Hooks: &Hooks{
			OnLookup: func(ev LookupEvent) {
				lookups.Add(1)
				if ev.Collapsed {
					collapsed.Add(1)
				}
				if ev.Miss {
					misses.Add(1)
				}
			},
			OnAdmit: func(AdmitEvent) { admits.Add(1) },
		},
	}
	e := tracedEngine(cfg)

	const goroutines = 8
	const perG = 10
	platforms := []*platform.Platform{smallPlatform(t, 201), smallPlatform(t, 202), smallPlatform(t, 203)}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := platforms[(g+i)%len(platforms)]
				if _, err := e.Plan(PlanRequest{Platform: p, Source: 0}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Drain()

	s := e.Stats()
	total := int64(goroutines * perG)
	if s.Requests != total {
		t.Fatalf("Requests = %d, want %d", s.Requests, total)
	}
	if lookups.Load() != s.Requests {
		t.Fatalf("OnLookup fired %d times, engine routed %d requests", lookups.Load(), s.Requests)
	}
	if misses.Load() != s.Misses || collapsed.Load() != s.Singleflight {
		t.Fatalf("hook counts (miss=%d collapsed=%d) disagree with stats (miss=%d singleflight=%d)",
			misses.Load(), collapsed.Load(), s.Misses, s.Singleflight)
	}
	if admits.Load() != s.Solves {
		t.Fatalf("OnAdmit fired %d times, engine ran %d solves", admits.Load(), s.Solves)
	}
	if n := e.Tracer().Len(); int64(n) != total {
		t.Fatalf("trace ring holds %d traces, want %d", n, total)
	}
	// Every trace leads with exactly one lookup span, so span emission lost
	// nothing either.
	for _, tr := range e.Tracer().Snapshot("", 0) {
		if len(tr.Events) == 0 || tr.Events[0].Kind != obs.SpanLookup {
			t.Fatalf("trace %s does not lead with a lookup span: %+v", tr.ID, tr.Events)
		}
	}
}
