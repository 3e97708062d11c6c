package service

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/platform"
)

// TestServiceConcurrentIdenticalRequests hammers the engine with identical
// requests from many goroutines: exactly one solve must happen
// (singleflight), every answer must carry byte-identical plan bytes, and the
// hit/miss counters must add up to the request count. Run with -race.
func TestServiceConcurrentIdenticalRequests(t *testing.T) {
	e := New(Config{Workers: 4})
	p := smallPlatform(t, 31)
	const goroutines = 32

	results := make([]*PlanResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = e.Plan(PlanRequest{Platform: p, Source: 0})
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(results[g].JSON, results[0].JSON) {
			t.Fatalf("goroutine %d returned different plan bytes", g)
		}
	}
	st := e.Stats()
	if st.Requests != goroutines {
		t.Errorf("requests = %d, want %d", st.Requests, goroutines)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits (%d) + misses (%d) != requests (%d)", st.Hits, st.Misses, st.Requests)
	}
	if st.Misses != 1 || st.Solves != 1 {
		t.Errorf("stats = %+v, want exactly 1 miss and 1 solve for identical concurrent requests", st)
	}
}

// TestServiceNeverSeenBurstCollapses releases a burst of identical requests
// for a platform the engine has never seen. Every one of them misses the
// exact lookup and fingerprints outside the lock; the re-check must let
// exactly one claim the entry and classify all the others as collapsed onto
// it. The solve is held until they have, so the counters are exact. Run with
// -race.
func TestServiceNeverSeenBurstCollapses(t *testing.T) {
	const goroutines = 16
	var collapsed atomic.Int64
	allCollapsed := make(chan struct{})
	e := New(Config{Workers: 4, Hooks: &Hooks{
		OnLookup: func(ev LookupEvent) {
			if ev.Collapsed && collapsed.Add(1) == goroutines-1 {
				close(allCollapsed)
			}
		},
		BeforeSolve: func() { <-allCollapsed },
	}})
	p := smallPlatform(t, 33)

	start := make(chan struct{})
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			<-start
			_, errs[g] = e.Plan(PlanRequest{Platform: p, Source: 0})
		}(g)
	}
	close(start)
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := e.Stats()
	if st.Solves != 1 || st.Misses != 1 || st.Singleflight != goroutines-1 || st.Hits != goroutines-1 || st.CacheEntries != 1 {
		t.Errorf("stats = %+v, want 1 solve, 1 miss, %d singleflight hits, 1 entry", st, goroutines-1)
	}
	if st.Hits+st.Misses != st.Requests || st.Requests != goroutines {
		t.Errorf("hits (%d) + misses (%d) != requests (%d), want %d", st.Hits, st.Misses, st.Requests, goroutines)
	}
}

// TestServiceConcurrentMixedRequests mixes identical and distinct platforms
// across goroutines: per-platform answers must be byte-identical, counters
// must add up, and each distinct platform must be solved exactly once.
func TestServiceConcurrentMixedRequests(t *testing.T) {
	e := New(Config{Workers: 8})
	const distinct = 6
	const repeats = 8
	plats := make([]*platform.Platform, distinct)
	for i := range plats {
		plats[i] = smallPlatform(t, int64(100+i))
	}

	type slot struct {
		res *PlanResult
		err error
	}
	results := make([][]slot, distinct)
	for i := range results {
		results[i] = make([]slot, repeats)
	}
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		for r := 0; r < repeats; r++ {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				res, err := e.Plan(PlanRequest{Platform: plats[i], Source: 0})
				results[i][r] = slot{res, err}
			}(i, r)
		}
	}
	wg.Wait()

	for i := 0; i < distinct; i++ {
		for r := 0; r < repeats; r++ {
			if results[i][r].err != nil {
				t.Fatalf("platform %d repeat %d: %v", i, r, results[i][r].err)
			}
			if !bytes.Equal(results[i][r].res.JSON, results[i][0].res.JSON) {
				t.Fatalf("platform %d repeat %d returned different plan bytes", i, r)
			}
		}
		// Distinct platforms must not share plans.
		for j := 0; j < i; j++ {
			if bytes.Equal(results[i][0].res.JSON, results[j][0].res.JSON) {
				t.Fatalf("platforms %d and %d returned identical plans", i, j)
			}
		}
	}
	st := e.Stats()
	if st.Requests != distinct*repeats {
		t.Errorf("requests = %d, want %d", st.Requests, distinct*repeats)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits (%d) + misses (%d) != requests (%d)", st.Hits, st.Misses, st.Requests)
	}
	if st.Solves != distinct {
		t.Errorf("solves = %d, want %d (one per distinct platform)", st.Solves, distinct)
	}
}

// TestServiceConcurrentDeltaRequests stresses the session hand-off: many
// goroutines race delta requests against the same base. Exactly one can win
// the warm session; everyone must still get a correct, identical plan for
// identical deltas.
func TestServiceConcurrentDeltaRequests(t *testing.T) {
	e := New(Config{Workers: 4})
	p := smallPlatform(t, 41)
	first, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	delta := platform.Delta{Kind: platform.DeltaScaleLink, Link: 1, Factor: 1.5}

	const goroutines = 16
	results := make([]*PlanResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = e.Plan(PlanRequest{
				Base:   first.Plan.Fingerprint,
				Deltas: []platform.Delta{delta},
				Source: 0,
			})
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
	}
	// Warm and cold solves of the same master can differ in the last few
	// ulps, so byte-identity is only guaranteed among plans answered from
	// the cache — which is every one after the first insert. Check
	// throughputs agree tightly instead, plus counter consistency.
	want := results[0].Plan.Throughput
	for g := 1; g < goroutines; g++ {
		got := results[g].Plan.Throughput
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("goroutine %d throughput %v, want %v", g, got, want)
		}
	}
	st := e.Stats()
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits (%d) + misses (%d) != requests (%d)", st.Hits, st.Misses, st.Requests)
	}
}
