package service

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Metrics is the HTTP-layer instrumentation of the planning service:
// per-endpoint request/error counters and wall-clock latency histograms
// (stats.Histogram, nanosecond ticks), next to a snapshot of the engine's
// own cache/solver counters. One Metrics instance is shared by every route
// of a handler; it is safe for concurrent use.
type Metrics struct {
	mu     sync.Mutex
	routes map[string]*routeMetrics
}

type routeMetrics struct {
	requests int64
	errors   int64
	latency  stats.Histogram
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{routes: make(map[string]*routeMetrics)}
}

// observe records one served request on a route.
func (m *Metrics) observe(route string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := m.routes[route]
	if rm == nil {
		rm = &routeMetrics{}
		m.routes[route] = rm
	}
	rm.requests++
	if status >= 400 {
		rm.errors++
	}
	rm.latency.Record(elapsed.Nanoseconds())
}

// EndpointMetrics is the exported view of one route's counters.
type EndpointMetrics struct {
	Requests  int64                  `json:"requests"`
	Errors    int64                  `json:"errors"`
	LatencyNs stats.HistogramSummary `json:"latencyNs"`
}

// MetricsSnapshot is everything the service reports, taken once per scrape:
// the engine's cache/solver counters (every one present, zero or not), the
// solve-stage histograms, and per-endpoint HTTP counters and latency
// quantiles. GET /v1/metrics serves it as JSON and GET /metrics renders it
// with PromText, so the two can never disagree. Endpoints marshal as a JSON
// object keyed by route, so the serialization is stable (encoding/json sorts
// map keys).
type MetricsSnapshot struct {
	Engine    Stats                      `json:"engine"`
	Stage     StageStats                 `json:"stage"`
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}

// Snapshot returns a consistent copy of the per-endpoint counters combined
// with the engine's counter and stage snapshots.
func (m *Metrics) Snapshot(e *Engine) MetricsSnapshot {
	snap := MetricsSnapshot{
		Engine:    e.Stats(),
		Stage:     e.StageStats(),
		Endpoints: make(map[string]EndpointMetrics),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for route, rm := range m.routes {
		snap.Endpoints[route] = EndpointMetrics{
			Requests:  rm.requests,
			Errors:    rm.errors,
			LatencyNs: rm.latency.Summary(),
		}
	}
	return snap
}
