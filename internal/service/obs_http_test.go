package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// tracedServer starts a handler over an engine with a WallClock tracer (the
// bcast-serve configuration) and a captured slog logger.
func tracedServer(t *testing.T, logBuf *bytes.Buffer) (*httptest.Server, *Engine) {
	t.Helper()
	e := New(Config{Workers: 2, Tracer: obs.NewTracer(obs.Options{Capacity: 256, WallClock: true})})
	var logger *slog.Logger
	if logBuf != nil {
		logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	}
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{Logger: logger}))
	t.Cleanup(srv.Close)
	return srv, e
}

// TestHTTPTraceHeaderAndEndpoint checks the tentpole HTTP surface: the
// X-Bcast-Trace header, the envelope trace ID, and GET /v1/trace with its
// outcome filter.
func TestHTTPTraceHeaderAndEndpoint(t *testing.T) {
	var logBuf bytes.Buffer
	srv, _ := tracedServer(t, &logBuf)
	p := smallPlatform(t, 31)

	var traceIDs []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Platform: p, Source: 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d: %s", resp.StatusCode, body)
		}
		hdr := resp.Header.Get("X-Bcast-Trace")
		if hdr == "" {
			t.Fatal("response missing X-Bcast-Trace header")
		}
		var env struct {
			Cached  bool   `json:"cached"`
			TraceID string `json:"traceId"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.TraceID != hdr {
			t.Fatalf("envelope traceId %q != header %q", env.TraceID, hdr)
		}
		traceIDs = append(traceIDs, hdr)
	}
	if traceIDs[0] == traceIDs[1] {
		t.Fatalf("two requests shared trace ID %q", traceIDs[0])
	}

	resp, err := http.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	var env traceEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if env.Count != 2 || len(env.Traces) != 2 {
		t.Fatalf("trace dump count = %d (%d traces), want 2", env.Count, len(env.Traces))
	}
	// Wall-clock dump is most-recent-first; each trace ends with the
	// response-write span carrying the HTTP status.
	for _, tr := range env.Traces {
		last := tr.Events[len(tr.Events)-1]
		if last.Kind != obs.SpanResponse || last.Status != http.StatusOK {
			t.Fatalf("trace %s does not end with a 200 response span: %+v", tr.ID, tr.Events)
		}
		if tr.StartNs == 0 {
			t.Fatalf("WallClock trace missing StartNs: %+v", tr)
		}
		// A solve span says where its time went: the separation wall sits
		// inside the span's own duration.
		for _, ev := range tr.Events {
			if ev.Kind == obs.SpanSolve && (ev.Flows+ev.Certified <= 0 || ev.SepNs <= 0 || ev.SepNs > ev.DurNs) {
				t.Fatalf("WallClock solve span without a separation stage: %+v", ev)
			}
			if ev.Kind == obs.SpanSolve && ev.ColdSolves != 1 {
				t.Fatalf("cold miss's solve span counts %d cold master solves over the wire, want 1: %+v", ev.ColdSolves, ev)
			}
		}
	}
	if env.Traces[0].ID != traceIDs[1] {
		t.Fatalf("dump not most-recent-first: got %q, want %q first", env.Traces[0].ID, traceIDs[1])
	}

	// Outcome filter: exactly one miss and one hit.
	for outcome, want := range map[string]int{"miss": 1, "hit": 1, "shed": 0} {
		resp, err := http.Get(srv.URL + "/v1/trace?outcome=" + outcome)
		if err != nil {
			t.Fatal(err)
		}
		var filtered traceEnvelope
		err = json.NewDecoder(resp.Body).Decode(&filtered)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if filtered.Count != want {
			t.Fatalf("outcome=%s count = %d, want %d", outcome, filtered.Count, want)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/trace?limit=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad limit: status %d, want 400", resp.StatusCode)
		}
	}

	// Request logs carried the trace IDs.
	logs := logBuf.String()
	for _, id := range traceIDs {
		if !strings.Contains(logs, id) {
			t.Fatalf("request log missing trace ID %s:\n%s", id, logs)
		}
	}

	// An untraced engine 404s the endpoint.
	plain := httptest.NewServer(NewHandler(New(Config{})))
	defer plain.Close()
	resp, err = http.Get(plain.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced /v1/trace: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPTraceSolveSpanPackingStage a k-tree plan's solve span adds the
// packing stage to the separation stage: its rounds and pivots, and on the
// WallClock tracer bcast-serve runs, its wall.
func TestHTTPTraceSolveSpanPackingStage(t *testing.T) {
	srv, _ := tracedServer(t, nil)
	resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Platform: smallPlatform(t, 31), Source: 0, Trees: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k-tree plan status %d: %s", resp.StatusCode, body)
	}
	dump, err := http.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	var env traceEnvelope
	err = json.NewDecoder(dump.Body).Decode(&env)
	dump.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Traces) != 1 || env.Traces[0].ID != resp.Header.Get("X-Bcast-Trace") {
		t.Fatalf("trace dump does not hold the k-tree plan's trace: %+v", env.Traces)
	}
	for _, ev := range env.Traces[0].Events {
		if ev.Kind == obs.SpanSolve {
			if ev.PackRounds <= 0 || ev.PackPivots <= 0 || ev.PackNs <= 0 {
				t.Fatalf("WallClock solve span of a k-tree plan without a packing stage: %+v", ev)
			}
			return
		}
	}
	t.Fatalf("k-tree miss recorded no solve span: %+v", env.Traces[0].Events)
}

// TestHTTPPrometheusMetrics scrapes GET /metrics and validates the
// exposition: well-formed Prometheus text covering every engine counter
// family plus the solve-stage summaries and per-route HTTP families.
func TestHTTPPrometheusMetrics(t *testing.T) {
	srv, _ := tracedServer(t, nil)
	p := smallPlatform(t, 32)
	if resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Platform: p, Source: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	if _, err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, fam := range []string{
		"bcast_requests_total", "bcast_cache_hits_total", "bcast_cache_misses_total",
		"bcast_twin_misses_total", "bcast_singleflight_total", "bcast_evictions_total",
		"bcast_evictions_deferred_total", "bcast_queued_total", "bcast_shed_total",
		"bcast_canceled_total", "bcast_degraded_total", "bcast_refines_total",
		"bcast_refine_failures_total", "bcast_solves_total", "bcast_delta_plans_total",
		"bcast_warm_resolves_total", "bcast_session_rebuilds_total",
		"bcast_lp_pivots_total", "bcast_lp_warm_pivots_total", "bcast_lp_cold_pivots_total",
		"bcast_separation_maxflows_total", "bcast_separation_certified_total",
		"bcast_churn_runs_total", "bcast_cache_entries", "bcast_cache_capacity",
		"bcast_workers", "bcast_queue_depth",
		"bcast_solve_latency_seconds", "bcast_queue_wait_seconds", "bcast_refine_latency_seconds",
		"bcast_solve_pivots", "bcast_solve_rounds", "bcast_solve_cuts",
		"bcast_http_requests_total",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Fatalf("exposition missing family %s:\n%s", fam, body)
		}
	}
	if !strings.Contains(body, "bcast_requests_total 1") || !strings.Contains(body, "bcast_solves_total 1") {
		t.Fatalf("counter values missing:\n%s", body)
	}
	if !strings.Contains(body, `bcast_http_requests_total{route="/v1/plan"} 1`) {
		t.Fatalf("per-route family missing:\n%s", body)
	}
	if !strings.Contains(body, `bcast_solve_pivots{quantile="0.9"}`) || !strings.Contains(body, "bcast_solve_pivots_count 1") {
		t.Fatalf("solve-stage summary missing:\n%s", body)
	}
}

// TestHTTPMetricsJSONOverloadAndStage checks that /v1/metrics always
// carries the overload counters in its engine member (even at zero) and the
// solve-stage histograms.
func TestHTTPMetricsJSONOverloadAndStage(t *testing.T) {
	srv, _ := tracedServer(t, nil)
	p := smallPlatform(t, 33)
	if resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Platform: p, Source: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The overload keys must be present in the raw engine member even when
	// zero.
	var members map[string]json.RawMessage
	if err := json.Unmarshal(raw, &members); err != nil {
		t.Fatal(err)
	}
	if _, ok := members["stage"]; !ok {
		t.Fatalf("/v1/metrics missing \"stage\":\n%s", raw)
	}
	for _, key := range []string{`"shed":0`, `"queued":0`, `"canceled":0`, `"degraded":0`,
		`"refines":0`, `"refineFailures":0`, `"evictionsDeferred":0`, `"queueDepth":0`} {
		if !strings.Contains(string(members["engine"]), key) {
			t.Fatalf("/v1/metrics engine member missing %s:\n%s", key, raw)
		}
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stage.SolvePivots.Count != 1 || snap.Stage.SolvePivots.P50 <= 0 {
		t.Fatalf("stage solve-pivots summary = %+v, want one recorded solve", snap.Stage.SolvePivots)
	}
	if snap.Stage.SolveLatencyNs.Count != 1 {
		t.Fatalf("stage solve-latency summary = %+v", snap.Stage.SolveLatencyNs)
	}
}

// TestHTTPPanicBodyWithActiveTrace is the satellite regression test: a
// handler panic with an active trace must produce a non-empty structured 500
// carrying the trace ID and method/path, and the log line must carry the
// stack with the same trace ID.
func TestHTTPPanicBodyWithActiveTrace(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	e := New(Config{Tracer: obs.NewTracer(obs.Options{Capacity: 16, WallClock: true})})
	h := instrument(e, NewMetrics(), logger, "/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom with trace")
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatalf("panic severed the connection: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(raw)) == 0 {
		t.Fatal("panic produced an empty body")
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Bcast-Trace")
	if traceID == "" {
		t.Fatal("panic response missing X-Bcast-Trace header")
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("panic body is not JSON: %q", raw)
	}
	if !strings.Contains(eb.Error, "kaboom with trace") {
		t.Fatalf("panic body error = %q", eb.Error)
	}
	if eb.TraceID != traceID || eb.Method != http.MethodGet || eb.Path != "/boom" {
		t.Fatalf("panic body not attributable: %+v (want trace %s, GET /boom)", eb, traceID)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, traceID) || !strings.Contains(logs, "stack") || !strings.Contains(logs, "panic recovered") {
		t.Fatalf("panic log missing trace/stack:\n%s", logs)
	}
}
