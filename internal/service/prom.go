package service

import (
	"sort"

	"repro/internal/obs"
)

// PromText renders a metrics snapshot as a Prometheus text exposition
// (version 0.0.4): every service.Stats counter as a bcast_*_total counter (or
// bcast_* gauge for occupancy/configuration), the solve-stage histograms as
// summaries, and the per-route HTTP counters and latency quantiles with a
// route label. GET /metrics renders the same snapshot GET /v1/metrics
// marshals, so the two can never disagree about the underlying numbers. A
// snapshot with no endpoints (an in-process engine's) renders no HTTP
// families.
func PromText(snap MetricsSnapshot) string {
	r := obs.NewRegistry()
	s := snap.Engine
	counter := func(name, help string, v int64) {
		r.Counter(name, help, float64(v))
	}
	counter("bcast_requests_total", "Plan requests routed (hits + misses).", s.Requests)
	counter("bcast_cache_hits_total", "Plan requests served from the cache.", s.Hits)
	counter("bcast_cache_misses_total", "Plan requests that claimed a new cache entry.", s.Misses)
	counter("bcast_twin_misses_total", "Misses whose fingerprint was cached under a different exact encoding.", s.TwinMisses)
	counter("bcast_singleflight_total", "Requests collapsed onto an in-flight identical solve.", s.Singleflight)
	counter("bcast_evictions_total", "Cache entries evicted.", s.Evictions)
	counter("bcast_evictions_deferred_total", "Eviction scans that skipped an in-flight entry.", s.EvictionsDeferred)
	counter("bcast_queued_total", "Cold-miss solves that waited in the admission queue.", s.Queued)
	counter("bcast_shed_total", "Cold-miss solves shed under overload.", s.Shed)
	counter("bcast_canceled_total", "Requests abandoned by deadline or cancellation.", s.Canceled)
	counter("bcast_degraded_total", "Degraded-mode heuristic answers served immediately.", s.Degraded)
	counter("bcast_refines_total", "Background refinements that replaced a degraded plan.", s.Refines)
	counter("bcast_refine_failures_total", "Background refinements that failed.", s.RefineFailures)
	counter("bcast_solves_total", "Solver runs.", s.Solves)
	counter("bcast_delta_plans_total", "Requests served through the base+deltas path.", s.DeltaPlans)
	counter("bcast_warm_resolves_total", "Delta solves that reused a warm session.", s.WarmResolves)
	counter("bcast_session_rebuilds_total", "Delta solves that rebuilt their session.", s.SessionRebuilds)
	counter("bcast_lp_pivots_total", "Simplex pivots across all solves.", s.LPPivots)
	counter("bcast_lp_warm_pivots_total", "Warm-start simplex pivots across all solves.", s.LPWarmPivots)
	counter("bcast_lp_cold_pivots_total", "Cold-start simplex pivots across all solves.", s.LPColdPivots)
	counter("bcast_separation_maxflows_total", "Fresh cut-separation max-flows across all solves.", s.SepMaxFlows)
	counter("bcast_separation_certified_total", "Destinations the chained separation flow certified across all solves.", s.SepCertified)
	counter("bcast_churn_runs_total", "Churn-replay requests.", s.ChurnRuns)
	r.Gauge("bcast_cache_entries", "Cached plans.", float64(s.CacheEntries))
	r.Gauge("bcast_cache_capacity", "Configured cache capacity.", float64(s.CacheCapacity))
	r.Gauge("bcast_workers", "Configured solve lanes.", float64(s.Workers))
	r.Gauge("bcast_queue_depth", "Configured admission-queue depth.", float64(s.QueueDepth))

	st := snap.Stage
	r.Summary("bcast_solve_latency_seconds", "Wall-clock latency of completed solves.", st.SolveLatencyNs, 1e-9)
	r.Summary("bcast_queue_wait_seconds", "Admission wait of admitted solves.", st.QueueWaitNs, 1e-9)
	r.Summary("bcast_refine_latency_seconds", "End-to-end latency of background refinements.", st.RefineLatencyNs, 1e-9)
	r.Summary("bcast_solve_pivots", "Simplex pivots per solve.", st.SolvePivots, 1)
	r.Summary("bcast_solve_rounds", "Cutting-plane rounds per solve.", st.SolveRounds, 1)
	r.Summary("bcast_solve_cuts", "Cuts added per solve.", st.SolveCuts, 1)

	routes := make([]string, 0, len(snap.Endpoints))
	for route := range snap.Endpoints {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		em := snap.Endpoints[route]
		r.Counter("bcast_http_requests_total", "HTTP requests by route.", float64(em.Requests), "route", route)
		r.Counter("bcast_http_errors_total", "HTTP responses with status >= 400 by route.", float64(em.Errors), "route", route)
		r.Summary("bcast_http_latency_seconds", "HTTP request latency by route.", em.LatencyNs, 1e-9, "route", route)
	}
	return r.Render()
}
