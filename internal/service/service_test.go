package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/steady"
	"repro/internal/topology"
)

// clusterPlatform generates the cluster-of-clusters platform used throughout
// the service tests: big enough that a solve visibly outweighs a cache hit.
func clusterPlatform(t testing.TB, seed int64) *platform.Platform {
	t.Helper()
	p, err := topology.Clusters(topology.DefaultClusterConfig(), topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bigClusterPlatform generates a platform whose solve takes long enough that
// the cold-vs-hit timing assertion has headroom.
func bigClusterPlatform(t testing.TB, seed int64) *platform.Platform {
	t.Helper()
	cfg := topology.DefaultClusterConfig()
	cfg.Clusters = 6
	cfg.NodesPerCluster = 16
	p, err := topology.Clusters(cfg, topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertCertifiedPlan checks a plan of the platform with steady.Certify,
// which trusts no LP: the plan's rates must carry its throughput within the
// one-port constraints, and the port prices of a fresh solve of the same
// platform must bound it, both to 1e-6.
func assertCertifiedPlan(t *testing.T, p *platform.Platform, plan *Plan, label string) {
	t.Helper()
	ref, err := steady.Solve(p, plan.Source, nil)
	if err != nil {
		t.Fatalf("%s: reference solve: %v", label, err)
	}
	sol := &steady.Solution{Throughput: plan.Throughput, EdgeRate: plan.EdgeRate, PortDual: ref.PortDual}
	if _, _, err := steady.Certify(p, plan.Source, sol); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// smallPlatform generates a small random platform.
func smallPlatform(t testing.TB, seed int64) *platform.Platform {
	t.Helper()
	p, err := topology.Random(topology.DefaultRandomConfig(10, 0.4), topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanCacheHitByteIdenticalAndFaster(t *testing.T) {
	e := New(Config{})
	p := bigClusterPlatform(t, 7)
	req := PlanRequest{Platform: p, Source: 0, Heuristic: heuristics.NameLPGrowTree}

	start := time.Now()
	first, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(start)
	if first.Cached {
		t.Fatal("first request reported as cached")
	}
	if first.Plan.Throughput <= 0 {
		t.Fatalf("throughput = %v, want > 0", first.Plan.Throughput)
	}

	// The acceptance bar is >= 10x. A hit is a fingerprint plus a map lookup
	// and a byte copy; the median of several hits irons out scheduler noise.
	hits := make([]time.Duration, 5)
	for i := range hits {
		start = time.Now()
		hit, err := e.Plan(req)
		hits[i] = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached {
			t.Fatalf("repeat %d missed the cache", i)
		}
		if !bytes.Equal(hit.JSON, first.JSON) {
			t.Fatalf("repeat %d returned different plan bytes", i)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
	hitDur := hits[len(hits)/2]
	if coldDur < 10*hitDur {
		t.Errorf("cache hit not >= 10x faster: cold %v vs median hit %v", coldDur, hitDur)
	}

	st := e.Stats()
	if st.Misses != 1 || st.Hits != 5 || st.Requests != 6 || st.Solves != 1 {
		t.Errorf("stats = %+v, want 1 miss, 5 hits, 6 requests, 1 solve", st)
	}
}

func TestPlanMatchesSteadySolve(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 3)
	res, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := steady.Solve(p.Clone(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Plan.Throughput-want.Throughput) > 1e-9*math.Max(1, want.Throughput) {
		t.Errorf("plan throughput %v != steady.Solve %v", res.Plan.Throughput, want.Throughput)
	}
	if res.Plan.Fingerprint != p.Fingerprint().String() {
		t.Errorf("plan fingerprint %s != platform fingerprint", res.Plan.Fingerprint)
	}
}

func TestPlanKeySeparatesOptionsAndSource(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 5)
	if _, err := e.Plan(PlanRequest{Platform: p, Source: 0}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Plan(PlanRequest{Platform: p, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("different source must not hit the cache")
	}
	res, err = e.Plan(PlanRequest{Platform: p, Source: 0, Heuristic: heuristics.NameGrowTree})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("different heuristic must not hit the cache")
	}
}

func TestPlanDeltaPathWarmThenDerived(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 11)
	first, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	deltas := []platform.Delta{{Kind: platform.DeltaScaleLink, Link: 2, Factor: 1.8}}

	mut, err := e.Plan(PlanRequest{Base: first.Plan.Fingerprint, Deltas: deltas, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !mut.WarmResolved {
		t.Error("first delta request should reuse the base entry's warm session")
	}

	// Oracle: the certificate of the independently mutated platform.
	oracle := p.Clone()
	if _, err := oracle.ApplyDelta(deltas[0]); err != nil {
		t.Fatal(err)
	}
	assertCertifiedPlan(t, oracle, mut.Plan, "warm delta plan")
	if mut.Plan.Fingerprint != oracle.Fingerprint().String() {
		t.Error("mutated plan fingerprint does not match the mutated platform")
	}

	// The identical delta request is now answered from the cache.
	again, err := e.Plan(PlanRequest{Base: first.Plan.Fingerprint, Deltas: deltas, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated delta request should hit the cache")
	}
	if !bytes.Equal(again.JSON, mut.JSON) {
		t.Error("cached delta plan bytes differ from the original")
	}

	// A different delta against the same base finds the session gone (it
	// moved to the mutated entry) and re-derives one from the snapshot.
	other, err := e.Plan(PlanRequest{
		Base:   first.Plan.Fingerprint,
		Deltas: []platform.Delta{{Kind: platform.DeltaScaleLink, Link: 4, Factor: 2.5}},
		Source: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.WarmResolved {
		t.Error("second distinct delta request cannot be warm: the session moved")
	}
	oracle2 := p.Clone()
	if _, err := oracle2.ApplyDelta(platform.Delta{Kind: platform.DeltaScaleLink, Link: 4, Factor: 2.5}); err != nil {
		t.Fatal(err)
	}
	assertCertifiedPlan(t, oracle2, other.Plan, "derived delta plan")

	if st := e.Stats(); st.DeltaPlans != 3 || st.WarmResolves < 1 {
		t.Errorf("stats = %+v, want 3 delta plans and >= 1 warm resolve", st)
	}
}

func TestPlanDeltaChain(t *testing.T) {
	// Chained one-delta-away requests: each step uses the previous plan's
	// fingerprint as its base, the warm session following the lineage.
	e := New(Config{})
	p := smallPlatform(t, 13)
	res, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	oracle := p.Clone()
	warm := 0
	for step := 0; step < 4; step++ {
		d := platform.Delta{Kind: platform.DeltaScaleLink, Link: step, Factor: 1.25}
		res, err = e.Plan(PlanRequest{Base: res.Plan.Fingerprint, Deltas: []platform.Delta{d}, Source: 0})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.WarmResolved {
			warm++
		}
		if _, err := oracle.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		assertCertifiedPlan(t, oracle, res.Plan, fmt.Sprintf("step %d: chained plan", step))
	}
	if warm != 4 {
		t.Errorf("warm resolves along the chain = %d, want 4", warm)
	}
}

func TestPlanUnknownBase(t *testing.T) {
	e := New(Config{})
	_, err := e.Plan(PlanRequest{Base: smallPlatform(t, 1).Fingerprint().String(), Source: 0})
	if !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("err = %v, want ErrUnknownBase", err)
	}
	if _, err := e.Plan(PlanRequest{Base: "zz-not-hex", Source: 0}); err == nil {
		t.Fatal("malformed base fingerprint accepted")
	}
}

func TestPlanRejectsDegenerateRequests(t *testing.T) {
	e := New(Config{})
	if _, err := e.Plan(PlanRequest{Source: 0}); !errors.Is(err, ErrNoPlatform) {
		t.Errorf("missing platform: err = %v, want ErrNoPlatform", err)
	}
	if _, err := e.Plan(PlanRequest{Platform: platform.New(1), Source: 0}); !errors.Is(err, ErrTooSmall) {
		t.Errorf("single node: err = %v, want ErrTooSmall", err)
	}
	p := smallPlatform(t, 2)
	first, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Ambiguous requests (full platform AND base) are rejected instead of
	// silently answering for one of the two.
	_, err = e.Plan(PlanRequest{Platform: p, Base: first.Plan.Fingerprint, Source: 0})
	if !errors.Is(err, ErrBothPlatform) {
		t.Errorf("platform+base: err = %v, want ErrBothPlatform", err)
	}
}

func TestPlanDisableSessionsStillServesDeltas(t *testing.T) {
	e := New(Config{DisableSessions: true})
	p := smallPlatform(t, 19)
	first, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	d := platform.Delta{Kind: platform.DeltaScaleLink, Link: 1, Factor: 2}
	mut, err := e.Plan(PlanRequest{Base: first.Plan.Fingerprint, Deltas: []platform.Delta{d}, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mut.WarmResolved {
		t.Error("sessions are disabled; the delta request cannot be warm")
	}
	oracle := p.Clone()
	if _, err := oracle.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	assertCertifiedPlan(t, oracle, mut.Plan, "session-less delta plan")
	// Repeated identical requests still hit.
	hit, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("plan cache must still work with sessions disabled")
	}
}

// starvedLP is a one-pivot master budget: every solve under it fails with
// ErrLPFailed.
var starvedLP = &steady.Options{LP: &lp.Options{MaxIterations: 1}}

func TestPlanFailedSolveNotCached(t *testing.T) {
	e := New(Config{Steady: starvedLP})
	p := clusterPlatform(t, 3)
	req := PlanRequest{Platform: p, Source: 0}
	// The failure is not cached: the repeat misses and solves again.
	for i := int64(1); i <= 2; i++ {
		if _, err := e.Plan(req); !errors.Is(err, steady.ErrLPFailed) {
			t.Fatalf("request %d: err = %v, want ErrLPFailed", i, err)
		}
		if st := e.Stats(); st.CacheEntries != 0 || st.Misses != i || st.Hits != 0 {
			t.Errorf("request %d: stats = %+v, want %d misses, no hits and no cache entry", i, st, i)
		}
	}
}

func TestPlanLRUEviction(t *testing.T) {
	e := New(Config{CacheSize: 2})
	var reqs []PlanRequest
	for seed := int64(1); seed <= 3; seed++ {
		reqs = append(reqs, PlanRequest{Platform: smallPlatform(t, seed), Source: 0})
	}
	for _, r := range reqs {
		if _, err := e.Plan(r); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Evictions != 1 || st.CacheEntries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	// The oldest plan was evicted; re-requesting it is a miss.
	res, err := e.Plan(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("evicted plan still served from cache")
	}
	// The most recent one is still cached.
	res, err = e.Plan(reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("recently used plan was evicted")
	}
}

// permutedTwin renumbers every node of p by the cyclic shift u -> u+1.
func permutedTwin(p *platform.Platform) *platform.Platform {
	n := p.NumNodes()
	q := platform.New(n)
	q.SetSliceSize(p.SliceSize())
	for u := 0; u < n; u++ {
		q.SetNode((u+1)%n, p.Node(u))
	}
	for _, l := range p.Links() {
		q.MustAddLink((l.From+1)%n, (l.To+1)%n, l.Cost)
	}
	return q
}

func TestPlanTwinMissIsNotServedWrongPlan(t *testing.T) {
	// A renumbered twin shares the fingerprint but not the content: the
	// cached plan's edge rates are in the wrong ID space, so the engine must
	// solve it fresh — whichever of the two numberings it saw first.
	p := smallPlatform(t, 9)
	twin := permutedTwin(p)
	if p.Fingerprint() != twin.Fingerprint() {
		t.Fatal("twin does not share the fingerprint (test setup)")
	}
	for _, order := range [][2]*platform.Platform{{p, twin}, {twin, p}} {
		e := New(Config{})
		first, err := e.Plan(PlanRequest{Platform: order[0], Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Plan(PlanRequest{Platform: order[1], Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("twin request served from cache despite different content")
		}
		if res.Plan.Fingerprint != first.Plan.Fingerprint || res.Plan.ExactKey == first.Plan.ExactKey {
			t.Errorf("twin plan identity (%s, %s) against (%s, %s): want the fingerprint shared, the exact key not",
				res.Plan.Fingerprint, res.Plan.ExactKey, first.Plan.Fingerprint, first.Plan.ExactKey)
		}
		want, err := steady.Solve(order[1].Clone(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Plan.Throughput-want.Throughput) > 1e-9*math.Max(1, want.Throughput) {
			t.Errorf("twin plan %v != direct solve %v", res.Plan.Throughput, want.Throughput)
		}
		if st := e.Stats(); st.TwinMisses != 1 || st.Misses != 2 || st.CacheEntries != 2 {
			t.Errorf("stats = %+v, want 2 misses of which 1 twin miss, in 2 entries", st)
		}
		// Twins cache side by side under their own exact keys: repeating
		// either request now hits its own entry.
		for i, q := range order {
			res, err := e.Plan(PlanRequest{Platform: q, Source: 0})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cached {
				t.Errorf("repeat of twin %d missed the cache", i)
			}
		}
		if st := e.Stats(); st.TwinMisses != 1 || st.Hits != 2 {
			t.Errorf("stats after the repeats = %+v, want 2 hits and still 1 twin miss", st)
		}
	}
}

// TestPlanExactHitSkipsFingerprint is the observable form of "a repeat never
// runs colour refinement": an exact hit allocates the canonical encoding, the
// result and its copy of the plan bytes; a fingerprint alone allocates six
// buffers more, which the bound leaves no room for.
func TestPlanExactHitSkipsFingerprint(t *testing.T) {
	e := New(Config{})
	req := PlanRequest{Platform: smallPlatform(t, 13), Source: 0}
	if _, err := e.Plan(req); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		res, err := e.PlanContext(ctx, req)
		if err != nil || !res.Cached {
			t.Fatalf("repeat request: cached=%v err=%v", res != nil && res.Cached, err)
		}
	})
	if allocs > 5 {
		t.Errorf("an exact hit made %.0f allocations, want at most 5", allocs)
	}
}

func TestPlanDeltaBaseAmbiguousTwinsNeedExactKey(t *testing.T) {
	// With two renumbered twins cached under one fingerprint, a delta
	// request by fingerprint alone is ambiguous (deltas address links by
	// ID); BaseExact pins the intended twin.
	e := New(Config{})
	p := smallPlatform(t, 9)
	twin := permutedTwin(p)
	rp, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := e.Plan(PlanRequest{Platform: twin, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Plan.Fingerprint != rt.Plan.Fingerprint {
		t.Fatal("twins should share the fingerprint (test setup)")
	}
	if rp.Plan.ExactKey == rt.Plan.ExactKey {
		t.Fatal("twins must not share the exact key")
	}

	d := platform.Delta{Kind: platform.DeltaScaleLink, Link: 0, Factor: 2}
	_, err = e.Plan(PlanRequest{Base: rp.Plan.Fingerprint, Deltas: []platform.Delta{d}, Source: 0})
	if !errors.Is(err, ErrAmbiguousBase) {
		t.Fatalf("ambiguous base: err = %v, want ErrAmbiguousBase", err)
	}

	// BaseExact selects the intended twin: the mutated plans must certify
	// against each twin's own numbering.
	for _, tc := range []struct {
		plat *platform.Platform
		res  *PlanResult
	}{{p, rp}, {twin, rt}} {
		mut, err := e.Plan(PlanRequest{
			Base:      tc.res.Plan.Fingerprint,
			BaseExact: tc.res.Plan.ExactKey,
			Deltas:    []platform.Delta{d},
			Source:    0,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := tc.plat.Clone()
		if _, err := oracle.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		assertCertifiedPlan(t, oracle, mut.Plan, "pinned delta plan")
	}

	if _, err := e.Plan(PlanRequest{Base: rp.Plan.Fingerprint, BaseExact: "zz", Source: 0}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("malformed baseExact: err = %v, want ErrBadRequest", err)
	}
}

func TestPlanEachDeterministicAcrossWorkerCounts(t *testing.T) {
	plats := make([]*platform.Platform, 6)
	for i := range plats {
		plats[i] = smallPlatform(t, int64(20+i/2)) // duplicates: cross-request hits
	}
	var baseline []PlanOutcome
	for _, workers := range []int{1, 4, 32} {
		e := New(Config{Workers: workers})
		reqs := make([]PlanRequest, len(plats))
		for i, p := range plats {
			reqs[i] = PlanRequest{Platform: p, Source: 0}
		}
		out := e.PlanEach(reqs, workers)
		if len(out) != len(reqs) {
			t.Fatalf("workers=%d: %d outcomes for %d requests", workers, len(out), len(reqs))
		}
		for i, o := range out {
			if o.Error != "" {
				t.Fatalf("workers=%d request %d: %s", workers, i, o.Error)
			}
		}
		if baseline == nil {
			baseline = out
			continue
		}
		for i := range out {
			if !bytes.Equal(out[i].Result.JSON, baseline[i].Result.JSON) {
				t.Errorf("workers=%d: plan %d differs from workers=1 baseline", workers, i)
			}
		}
	}
}

func TestEvaluateThroughCache(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 17)
	req := EvaluateRequest{Platform: p, Source: 0, Heuristics: []string{heuristics.NameLPGrowTree, heuristics.NameBinomial}}
	ev, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cached {
		t.Error("first evaluation reported cached optimum")
	}
	if len(ev.Results) != 2 {
		t.Fatalf("%d results, want 2", len(ev.Results))
	}
	for _, r := range ev.Results {
		if r.Error != "" {
			t.Fatalf("heuristic %s failed: %s", r.Heuristic, r.Error)
		}
		if r.Ratio <= 0 || r.Ratio > 1+1e-6 {
			t.Errorf("heuristic %s ratio %v outside (0, 1]", r.Heuristic, r.Ratio)
		}
	}
	ev2, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !ev2.Cached {
		t.Error("second evaluation did not reuse the cached optimum")
	}
	for i := range ev.Results {
		if ev.Results[i] != ev2.Results[i] {
			t.Errorf("evaluation of %s not deterministic", ev.Results[i].Heuristic)
		}
	}
}

func TestChurnReplay(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 21)
	rep, err := e.Churn(ChurnRequest{Platform: p, Source: 0, Events: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace.Events) != 8 {
		t.Errorf("trace has %d events, want 8", len(rep.Trace.Events))
	}
	if rep.Report == nil || len(rep.Report.Events) != 8 {
		t.Error("report missing per-event outcomes")
	}
	if rep.Fingerprint != p.Fingerprint().String() {
		t.Error("churn replay fingerprint mismatch")
	}
	if st := e.Stats(); st.ChurnRuns != 1 {
		t.Errorf("stats = %+v, want 1 churn run", st)
	}
	// The replay must not have mutated the caller's platform.
	if p.Mutated() {
		t.Error("churn replay mutated the request platform")
	}
}

func TestEvaluateOnePortRatiosAgainstModel(t *testing.T) {
	// Sanity: EvaluateHeuristic with an explicit model agrees with the
	// engine's default one-port evaluation.
	e := New(Config{})
	p := smallPlatform(t, 23)
	ev, err := e.Evaluate(EvaluateRequest{Platform: p, Source: 0, Heuristics: []string{heuristics.NameGrowTree}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := EvaluateHeuristic(p, 0, heuristics.NameGrowTree, res.Plan.EdgeRate, model.OnePortBidirectional)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-ev.Results[0].Throughput) > 1e-12 {
		t.Errorf("EvaluateHeuristic %v != Evaluate %v", tp, ev.Results[0].Throughput)
	}
}

// TestSingleflightGateDeterministic drives the Hooks instrumentation the
// way the load harness does: BeforeSolve holds the one solve of a burst of
// identical requests until every member has registered its lookup, which
// makes the singleflight split exact — 1 miss and k-1 collapsed hits — for
// any scheduling and any worker-pool size.
func TestSingleflightGateDeterministic(t *testing.T) {
	const burst = 6
	var (
		gateMu sync.Mutex
		seen   int
	)
	cond := sync.NewCond(&gateMu)
	hooks := &Hooks{
		OnLookup: func(LookupEvent) {
			gateMu.Lock()
			seen++
			gateMu.Unlock()
			cond.Broadcast()
		},
		BeforeSolve: func() {
			gateMu.Lock()
			for seen < burst {
				cond.Wait()
			}
			gateMu.Unlock()
		},
	}
	e := New(Config{Workers: 2, Hooks: hooks})
	p := smallPlatform(t, 61)

	var wg sync.WaitGroup
	results := make([]*PlanResult, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Plan(PlanRequest{Platform: p, Source: 0})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	var cached, collapsed int
	for i, res := range results {
		if res == nil {
			t.Fatalf("request %d has no result", i)
		}
		if res.Cached {
			cached++
		}
		if res.Collapsed {
			collapsed++
			if !res.Cached {
				t.Errorf("request %d: collapsed without cached", i)
			}
		}
		if !bytes.Equal(res.JSON, results[0].JSON) {
			t.Errorf("request %d returned different plan bytes", i)
		}
	}
	if cached != burst-1 || collapsed != burst-1 {
		t.Errorf("cached=%d collapsed=%d, want %d each", cached, collapsed, burst-1)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != burst-1 || st.Singleflight != burst-1 || st.Solves != 1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits / %d singleflight / 1 solve", st, burst-1, burst-1)
	}
}
