package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/steady"
)

// TestCanceledSolveLeavesNoCacheEntry is the cancellation half of the
// overload contract: a canceled cold solve must return ErrCanceled, keep the
// counters consistent (Hits+Misses == Requests, Canceled counted) and leave
// no cache entry behind — the follow-up request re-solves from scratch and
// must match the cold oracle.
func TestCanceledSolveLeavesNoCacheEntry(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 11)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.PlanContext(ctx, PlanRequest{Platform: p, Source: 0})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled solve error = %v, want ErrCanceled", err)
	}
	st := e.Stats()
	if st.CacheEntries != 0 {
		t.Fatalf("canceled solve left %d cache entries, want 0", st.CacheEntries)
	}
	if st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("Hits(%d)+Misses(%d) != Requests(%d) after cancellation", st.Hits, st.Misses, st.Requests)
	}

	// The follow-up must be a clean cold solve matching the oracle.
	res, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("follow-up after cancellation was served from the cache")
	}
	want, err := steady.Solve(p.Clone(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Plan.Throughput-want.Throughput) > 1e-6*math.Max(1, want.Throughput) {
		t.Errorf("post-cancel throughput %v != cold oracle %v", res.Plan.Throughput, want.Throughput)
	}
}

// TestCanceledDeltaSolveKeepsLineageUsable cancels a base+delta request and
// verifies the lineage still answers correctly afterwards: the canceled warm
// attempt must not poison the base entry's session or the cache.
func TestCanceledDeltaSolveKeepsLineageUsable(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 12)
	base, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}

	deltas := []platform.Delta{{Kind: platform.DeltaScaleLink, Link: 1, Factor: 1.25}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.PlanContext(ctx, PlanRequest{Base: base.Plan.Fingerprint, Deltas: deltas, Source: 0})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled delta solve error = %v, want ErrCanceled", err)
	}

	// Same delta request again, uncanceled: must solve and match the cold
	// oracle on the mutated platform.
	res, err := e.Plan(PlanRequest{Base: base.Plan.Fingerprint, Deltas: deltas, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	mut := p.Clone()
	for _, d := range deltas {
		if _, err := mut.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	want, err := steady.Solve(mut, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Plan.Throughput-want.Throughput) > 1e-6*math.Max(1, want.Throughput) {
		t.Errorf("post-cancel delta throughput %v != cold oracle %v", res.Plan.Throughput, want.Throughput)
	}
}

// TestAdmissionControlExactShedding shapes the engine to one lane and a
// one-deep queue, parks the lane's solve at the BeforeSolve hook, and issues
// four cold misses strictly one admission decision at a time: the kinds must
// come out lane, queued, shed, shed — deterministically — and the sheds must
// carry the typed overload error with a positive Retry-After.
func TestAdmissionControlExactShedding(t *testing.T) {
	release := make(chan struct{})
	admits := make(chan AdmitKind, 8)
	var solvers atomic.Int32
	hooks := &Hooks{
		BeforeSolve: func() {
			// Only the first solver (the lane holder) parks; the queued
			// request solves freely after the release.
			if solvers.Add(1) == 1 {
				<-release
			}
		},
		OnAdmit: func(ev AdmitEvent) { admits <- ev.Kind },
	}
	e := New(Config{Workers: 1, QueueDepth: 1, Hooks: hooks})

	const requests = 4
	var wg sync.WaitGroup
	errs := make([]error, requests)
	kinds := make([]AdmitKind, 0, requests)
	for i := 0; i < requests; i++ {
		p := smallPlatform(t, int64(100+i))
		done := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done)
			_, errs[i] = e.Plan(PlanRequest{Platform: p, Source: 0})
		}(i)
		select {
		case k := <-admits:
			kinds = append(kinds, k)
		case <-done:
			// A shed request finishes right after its decision, so both
			// channels can be ready at once and select picks either.
			select {
			case k := <-admits:
				kinds = append(kinds, k)
			default:
				t.Fatalf("request %d finished without an admission decision", i)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d: no admission decision", i)
		}
	}
	close(release)
	wg.Wait()

	want := []AdmitKind{AdmitLane, AdmitQueued, AdmitShed, AdmitShed}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("admission kinds = %v, want %v", kinds, want)
		}
	}
	shed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		shed++
		var oe *OverloadedError
		if !errors.As(err, &oe) {
			t.Fatalf("request %d failed with %v, want *OverloadedError", i, err)
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("request %d error does not unwrap to ErrOverloaded", i)
		}
		if oe.RetryAfter < time.Second {
			t.Errorf("request %d Retry-After %v, want >= 1s", i, oe.RetryAfter)
		}
	}
	if shed != 2 {
		t.Fatalf("%d requests shed, want exactly 2", shed)
	}
	st := e.Stats()
	if st.Shed != 2 {
		t.Errorf("Stats.Shed = %d, want 2", st.Shed)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("Hits(%d)+Misses(%d) != Requests(%d)", st.Hits, st.Misses, st.Requests)
	}
	if st.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2 (the two admitted solves)", st.CacheEntries)
	}
}

// TestInFlightEntryNotEvicted is the regression test for the eviction bug:
// with CacheSize 1, a second insert used to evict the in-flight first entry,
// detaching its waiters' results from the cache and double-solving. The trim
// must now skip open entries (counting EvictionsDeferred), let the cache run
// transiently over capacity, and evict only after the solve completes.
func TestInFlightEntryNotEvicted(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{})
	var solvers atomic.Int32
	hooks := &Hooks{BeforeSolve: func() {
		// A is issued first and B only after A is parked, so the first
		// solver through here is A's.
		if solvers.Add(1) == 1 {
			close(parked)
			<-release
		}
	}}
	e := New(Config{CacheSize: 1, Workers: 2, Hooks: hooks})

	pa := smallPlatform(t, 201)
	pb := smallPlatform(t, 202)

	aDone := make(chan struct{})
	var aRes *PlanResult
	var aErr error
	go func() {
		defer close(aDone)
		aRes, aErr = e.Plan(PlanRequest{Platform: pa, Source: 0})
	}()
	// Wait until A's solver is parked at the hook (entry claimed, solve in
	// flight).
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("request A never reached its solve")
	}

	// B's insert overflows the one-slot cache while A is open: the trim must
	// defer, not evict A.
	if _, err := e.Plan(PlanRequest{Platform: pb, Source: 0}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EvictionsDeferred == 0 {
		t.Fatalf("no eviction deferred while entry A was in flight (stats %+v)", st)
	}

	close(release)
	<-aDone
	if aErr != nil {
		t.Fatal(aErr)
	}
	if aRes.Plan.Throughput <= 0 {
		t.Fatal("request A returned no plan")
	}

	st := e.Stats()
	if st.CacheEntries != 1 {
		t.Errorf("CacheEntries = %d, want 1 after completion trims", st.CacheEntries)
	}
	// A hit on pa must now be a real hit (the completed A entry survived B's
	// insert) or a clean re-solve if it was the one trimmed — either way the
	// cache must never have dropped an open entry: Solves counts exactly the
	// requests that actually ran the LP.
	if st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (one per distinct platform)", st.Solves)
	}
}

// TestErrorPathSingleflightCounted is the regression test for the counter
// bug: a waiter collapsing onto a solve that then fails was booked as a Miss
// but never as Singleflight, so the flood replays under-reported collapse
// counts on error paths. Singleflight is now counted at classification.
func TestErrorPathSingleflightCounted(t *testing.T) {
	seen := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	hooks := &Hooks{
		OnLookup: func(ev LookupEvent) {
			if ev.Collapsed {
				once.Do(func() { close(seen) })
			}
		},
		BeforeSolve: func() {
			// Hold the doomed solve until the second request has collapsed
			// onto it.
			select {
			case <-seen:
			case <-proceed:
			}
		},
	}
	// A one-pivot budget starves the master LP so the solve must fail.
	e := New(Config{Hooks: hooks, Workers: 2, Steady: starvedLP})
	p := clusterPlatform(t, 5)
	req := PlanRequest{Platform: p, Source: 0}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Plan(req)
		}(i)
		if i == 0 {
			// Make sure the first request owns the entry before the second
			// looks up.
			deadline := time.After(30 * time.Second)
			for e.Stats().Misses == 0 {
				select {
				case <-deadline:
					t.Fatal("first request never claimed its entry")
				case <-time.After(time.Millisecond):
				}
			}
		}
	}
	wg.Wait()
	close(proceed)

	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d unexpectedly succeeded", i)
		}
	}
	st := e.Stats()
	if st.Singleflight != 1 {
		t.Errorf("Singleflight = %d, want 1 (counted at classification even though the solve failed)", st.Singleflight)
	}
	if st.Hits != 0 || st.Misses != 2 || st.Requests != 2 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses / 2 requests", st)
	}
	if st.CacheEntries != 0 {
		t.Errorf("failed solve left %d cache entries", st.CacheEntries)
	}
}

// TestDegradedModePlansAndRefines exercises the degraded contract: the
// opt-in request gets an immediate heuristic answer flagged Degraded, the
// background refinement replaces it with the LP optimum, and a later
// non-degraded request sees the refined plan as a plain cache hit.
func TestDegradedModePlansAndRefines(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 301)

	res, err := e.Plan(PlanRequest{Platform: p, Source: 0, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("degraded request did not return a degraded plan")
	}
	if res.Plan.Tree == nil || res.Plan.Throughput <= 0 {
		t.Fatal("degraded plan has no usable tree")
	}

	e.Drain()

	hit, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("refined entry was not served as a cache hit")
	}
	if hit.Degraded {
		t.Fatal("post-refinement hit still flagged degraded")
	}
	want, err := steady.Solve(p.Clone(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hit.Plan.Throughput-want.Throughput) > 1e-6*math.Max(1, want.Throughput) {
		t.Errorf("refined throughput %v != LP oracle %v", hit.Plan.Throughput, want.Throughput)
	}
	if res.Plan.Throughput > want.Throughput+1e-9 {
		t.Errorf("degraded heuristic throughput %v exceeds the LP optimum %v", res.Plan.Throughput, want.Throughput)
	}

	st := e.Stats()
	if st.Degraded != 1 || st.Refines != 1 || st.RefineFailures != 0 {
		t.Errorf("stats = %+v, want 1 degraded / 1 refine / 0 failures", st)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}
