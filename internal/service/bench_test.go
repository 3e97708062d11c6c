package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/topology"
)

func benchPlatform(b *testing.B) *platform.Platform {
	cfg := topology.DefaultClusterConfig()
	cfg.Clusters = 6
	cfg.NodesPerCluster = 16
	p, err := topology.Clusters(cfg, topology.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkServiceCacheMiss measures a cold plan: every iteration runs on an
// empty cache, so the full fingerprint + steady-state solve is paid.
func BenchmarkServiceCacheMiss(b *testing.B) {
	p := benchPlatform(b)
	req := PlanRequest{Platform: p, Source: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{Workers: 1})
		if _, err := e.Plan(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCacheHit measures a repeated identical plan request on an
// already decoded platform: one canonical encoding, one SHA-256, one map
// lookup — no fingerprint, no solve. The ns/op gap against
// BenchmarkServiceCacheMiss is the cache-hit speedup reported in
// BENCH_service.txt; BenchmarkHandlerPlanHit adds what a client also pays.
func BenchmarkServiceCacheHit(b *testing.B) {
	p := benchPlatform(b)
	req := PlanRequest{Platform: p, Source: 0}
	e := New(Config{Workers: 1})
	if _, err := e.Plan(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Plan(req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("cache miss in hit benchmark")
		}
	}
}

// BenchmarkHandlerPlanHit measures the hit a client sees, short of the
// socket: request body bytes through the /v1/plan handler (body read, decode,
// lookup, envelope) to the response bytes.
func BenchmarkHandlerPlanHit(b *testing.B) {
	body, err := json.Marshal(PlanRequest{Platform: benchPlatform(b), Source: 0})
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandler(New(Config{Workers: 1}))
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	post()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); !bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"cached":true`)) {
			b.Fatalf("not a cache hit: %.80s", rec.Body)
		}
	}
}

// BenchmarkServiceCacheHitTraced is BenchmarkServiceCacheHit with a
// deterministic tracer attached: the ns/op gap against the untraced variant
// is the hit-path cost of tracing (trace allocation, identity hash,
// content-derived ID, ring insert), reported in BENCH_obs.json as nanoseconds
// per request against a 2µs target.
func BenchmarkServiceCacheHitTraced(b *testing.B) {
	p := benchPlatform(b)
	req := PlanRequest{Platform: p, Source: 0}
	e := New(Config{Workers: 1, Tracer: obs.NewTracer(obs.Options{Capacity: 512})})
	if _, err := e.Plan(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Plan(req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("cache miss in hit benchmark")
		}
		if res.TraceID == "" {
			b.Fatal("traced hit carried no trace ID")
		}
	}
}

// BenchmarkServiceWarmDelta measures a one-delta-away request through the
// warm-session path against re-solving the mutated platform cold.
func BenchmarkServiceWarmDelta(b *testing.B) {
	base := benchPlatform(b)
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := New(Config{Workers: 1})
			first, err := e.Plan(PlanRequest{Platform: base, Source: 0})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := e.Plan(PlanRequest{
				Base:   first.Plan.Fingerprint,
				Deltas: []platform.Delta{{Kind: platform.DeltaScaleLink, Link: 0, Factor: 1.5}},
				Source: 0,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.WarmResolved {
				b.Fatal("delta request was not warm")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mutated := base.Clone()
			if _, err := mutated.ApplyDelta(platform.Delta{Kind: platform.DeltaScaleLink, Link: 0, Factor: 1.5}); err != nil {
				b.Fatal(err)
			}
			e := New(Config{Workers: 1})
			b.StartTimer()
			if _, err := e.Plan(PlanRequest{Platform: mutated, Source: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
