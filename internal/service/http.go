package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
)

// planEnvelope is the HTTP response of /v1/plan: the cache/warm flags wrap
// the canonical plan bytes, so repeated requests carry a byte-identical plan
// subdocument. Degraded marks a heuristic answer served under the degraded
// contract while the LP refinement runs in the background. TraceID repeats
// the X-Bcast-Trace header when the engine traced the request.
type planEnvelope struct {
	Cached    bool            `json:"cached"`
	Collapsed bool            `json:"collapsed,omitempty"`
	Warm      bool            `json:"warm,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
	TraceID   string          `json:"traceId,omitempty"`
	Plan      json.RawMessage `json:"plan"`
}

// errorBody is the JSON error envelope of every endpoint. TraceID, Method
// and Path are set by the panic-recovery middleware so an internal error is
// attributable from the body alone (the satellite contract: a recovered
// panic is never an empty or anonymous reply).
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"traceId,omitempty"`
	Method  string `json:"method,omitempty"`
	Path    string `json:"path,omitempty"`
}

// traceEnvelope is the response body of GET /v1/trace.
type traceEnvelope struct {
	Count  int          `json:"count"`
	Traces []*obs.Trace `json:"traces"`
}

// NewHandler returns the HTTP API of the engine:
//
//	POST /v1/plan      PlanRequest  -> {cached, collapsed, warm, plan}
//	POST /v1/evaluate  EvaluateRequest -> Evaluation
//	POST /v1/concurrent ConcurrentRequest -> ConcurrentPlan (multiple
//	                    sources broadcasting on one platform, capacity
//	                    split by shares; trees=k packs each broadcast)
//	POST /v1/churn     ChurnRequest -> ChurnReplay
//	GET  /v1/metrics   -> MetricsSnapshot (engine counters under "engine",
//	                      solve-stage histograms, per-endpoint
//	                      request/error counts and latency quantiles)
//	GET  /healthz      -> "ok"
//
// All bodies are JSON. Invalid requests return 400, an unknown base
// fingerprint 404, solver failures 500 — always with an {"error": ...} body;
// a panicking handler is recovered into a structured 500, never an empty
// reply.
//
// Overload contract: every solving endpoint runs under the request context
// plus the per-request deadlineMs (or the engine's configured default), and a
// solve abandoned on that deadline is a structured 504. When the engine's
// solve lanes and admission queue are both full, cold work is shed with a
// structured 429 carrying a Retry-After header (whole seconds, estimated from
// recent solve latency). Cache hits and collapsed waits never shed.
func NewHandler(e *Engine) http.Handler {
	return NewHandlerOpts(e, HandlerOptions{})
}

// HandlerOptions tune NewHandlerOpts beyond the defaults.
type HandlerOptions struct {
	// Logger, when non-nil, receives structured request logs (route, method,
	// status, duration, trace ID; plan requests additionally log their cache
	// and admission outcome) and panic-recovery logs with the stack. A nil
	// Logger disables logging.
	Logger *slog.Logger
}

// NewHandlerOpts is NewHandler with options. Beyond the NewHandler routes it
// serves:
//
//	GET  /metrics   -> the /v1/metrics snapshot as a Prometheus text
//	                   exposition (PromText)
//	GET  /v1/trace  -> recent request traces (?outcome= filters by
//	                   hit/collapsed/miss/shed/canceled/degraded/refine/error,
//	                   ?limit= caps the count, default 100)
//
// When the engine has a tracer, every response carries an X-Bcast-Trace
// header with the request-scoped trace ID, and /v1/plan responses repeat it
// in the envelope.
func NewHandlerOpts(e *Engine, opts HandlerOptions) http.Handler {
	m := NewMetrics()
	ins := func(route string, h http.HandlerFunc) http.Handler {
		return instrument(e, m, opts.Logger, route, h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/v1/metrics", ins("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("service: GET only"))
			return
		}
		writeJSON(w, http.StatusOK, m.Snapshot(e))
	}))
	mux.Handle("/metrics", ins("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("service: GET only"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, PromText(m.Snapshot(e)))
	}))
	mux.Handle("/v1/trace", ins("/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("service: GET only"))
			return
		}
		tracer := e.Tracer()
		if tracer == nil {
			writeError(w, http.StatusNotFound, errors.New("service: tracing disabled (engine has no tracer)"))
			return
		}
		limit := 100
		if ls := r.URL.Query().Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad limit %q", ls))
				return
			}
			limit = n
		}
		traces := tracer.Snapshot(r.URL.Query().Get("outcome"), limit)
		if traces == nil {
			traces = []*obs.Trace{}
		}
		writeJSON(w, http.StatusOK, traceEnvelope{Count: len(traces), Traces: traces})
	}))
	mux.Handle("/v1/plan", ins("/v1/plan", func(w http.ResponseWriter, r *http.Request) {
		var req PlanRequest
		if !decodeRequest(w, r, &req, &req.Platform) {
			return
		}
		ctx := r.Context()
		// The handler owns the trace (rather than letting PlanContext begin
		// one) so the response-write span lands inside it.
		tracer := e.Tracer()
		tc := tracer.Begin(obs.RequestID(ctx))
		if tc != nil {
			ctx = obs.WithTrace(ctx, tc)
		}
		res, err := e.PlanContext(ctx, req)
		status := http.StatusOK
		if err != nil {
			status = statusFor(err)
			writeOverloadAware(w, err)
		} else {
			writeJSON(w, http.StatusOK, planEnvelope{Cached: res.Cached, Collapsed: res.Collapsed, Warm: res.WarmResolved, Degraded: res.Degraded, TraceID: res.TraceID, Plan: res.JSON})
		}
		if tc != nil {
			tc.Add(obs.Event{Kind: obs.SpanResponse, Status: status})
			tracer.Finish(tc, TraceOutcome(res, err))
		}
		if opts.Logger != nil {
			opts.Logger.Info("plan",
				"trace", obs.RequestID(ctx),
				"outcome", TraceOutcome(res, err),
				"status", status)
		}
	}))
	mux.Handle("/v1/evaluate", ins("/v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		var req EvaluateRequest
		if !decodeRequest(w, r, &req, &req.Platform) {
			return
		}
		ev, err := e.EvaluateContext(r.Context(), req)
		if err != nil {
			writeOverloadAware(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ev)
	}))
	mux.Handle("/v1/concurrent", ins("/v1/concurrent", func(w http.ResponseWriter, r *http.Request) {
		var req ConcurrentRequest
		if !decodeRequest(w, r, &req, &req.Platform) {
			return
		}
		cp, err := e.ConcurrentContext(r.Context(), req)
		if err != nil {
			writeOverloadAware(w, err)
			return
		}
		writeJSON(w, http.StatusOK, cp)
	}))
	mux.Handle("/v1/churn", ins("/v1/churn", func(w http.ResponseWriter, r *http.Request) {
		var req ChurnRequest
		if !decodeRequest(w, r, &req, &req.Platform) {
			return
		}
		rep, err := e.ChurnContext(r.Context(), req)
		if err != nil {
			writeOverloadAware(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}))
	return mux
}

// statusWriter remembers the status code and whether anything was written,
// so instrumentation can count errors and the panic recovery knows whether a
// structured 500 body can still be sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.status = status
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.status = http.StatusOK
		sw.wrote = true
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps a route handler with latency/error accounting, trace-ID
// minting, structured request logging, and panic recovery. A panic inside
// the engine or a handler is converted into a structured 500 whose body
// carries the error, the request's trace ID, and its method/path (when the
// response has not started yet) instead of a severed connection with an
// empty body; the stack is logged with the same trace ID.
func instrument(e *Engine, m *Metrics, logger *slog.Logger, route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		// Mint the request-scoped trace ID up front so it is in the response
		// headers (and the panic body) no matter how the request ends; the
		// /v1/plan handler picks it up from the context as its trace ID.
		reqID := ""
		if e != nil && e.Tracer() != nil {
			reqID = obs.NewRequestID()
			sw.Header().Set("X-Bcast-Trace", reqID)
			r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				if logger != nil {
					logger.Error("panic recovered",
						"route", route,
						"method", r.Method,
						"path", r.URL.Path,
						"trace", reqID,
						"panic", fmt.Sprint(rec),
						"stack", string(debug.Stack()))
				}
				// http.ErrAbortHandler is net/http's sanctioned way to abort
				// a response, and a panic after the response started cannot
				// be converted into a well-formed error body — re-panic in
				// both cases so the server severs the connection and the
				// client sees the truncation.
				// net/http's own recovery compares the raw panic value, so
				// matching its contract requires the identity comparison.
				//lint:ignore senterr net/http defines panic(ErrAbortHandler) by identity, not by error chain
				if rec == http.ErrAbortHandler || sw.wrote {
					m.observe(route, http.StatusInternalServerError, time.Since(start))
					panic(rec)
				}
				writeJSON(sw, http.StatusInternalServerError, errorBody{
					Error:   fmt.Sprintf("service: internal error: %v", rec),
					TraceID: reqID,
					Method:  r.Method,
					Path:    r.URL.Path,
				})
			}
			elapsed := time.Since(start)
			m.observe(route, sw.status, elapsed)
			if logger != nil {
				logger.Info("request",
					"route", route,
					"method", r.Method,
					"status", sw.status,
					"durMs", float64(elapsed.Microseconds())/1000.0,
					"trace", reqID)
			}
		}()
		h(sw, r)
	})
}

// maxBodyBytes bounds request bodies: even very large platforms (tens of
// thousands of links) stay far below this, and the cap keeps a single
// client from pinning unbounded memory on the long-running service.
const maxBodyBytes = 32 << 20

// requirePost answers anything but a POST with a structured 405.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("service: POST only"))
		return false
	}
	return true
}

// decodeStrict decodes a request body into dst. The body must be exactly one
// JSON document with no unknown fields: trailing content — malformed or
// otherwise — is rejected with a structured 400 instead of being silently
// ignored.
func decodeStrict(w http.ResponseWriter, body io.Reader, dst interface{}) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("service: bad request body: trailing data after JSON document"))
		return false
	}
	return true
}

// decodeRequest enforces the POST method and decodes a request body into
// dst, whose "platform" member lands in *plat. Every request type carries a
// platform, and it is nearly all of the body (usually a repeat): the body is
// read once, the platform is decoded from it in a single pass
// (platform.DecodeMember), and only the few bytes around it go through the
// strict decoder. Whatever DecodeMember declines — a delta request, a
// malformed body — goes through the strict decoder whole, so the contract
// and the error texts are decodeStrict's on the raw body.
func decodeRequest(w http.ResponseWriter, r *http.Request, dst interface{}, plat **platform.Platform) bool {
	if !requirePost(w, r) {
		return false
	}
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	p, rest := platform.DecodeMember(buf.Bytes(), "platform")
	if p == nil {
		rest = buf.Bytes()
	}
	if !decodeStrict(w, bytes.NewReader(rest), dst) {
		return false
	}
	if p != nil {
		*plat = p
	}
	return true
}

// writeOverloadAware writes the error with statusFor's mapping, additionally
// attaching the Retry-After header when the engine shed the request for
// overload (the header must be set before the status line goes out, so the
// generic writeError path cannot do it).
func writeOverloadAware(w http.ResponseWriter, err error) {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		secs := int64(oe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, statusFor(err), err)
}

// statusFor maps engine errors to HTTP statuses: caller mistakes are 400s,
// a missing base fingerprint is 404, an ambiguous one 409, a shed request
// 429, a solve abandoned on its deadline 504; everything not recognizably
// the client's fault — solver trouble included — is a 500, so monitoring and
// retry policies see server-side failures as such.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownBase):
		return http.StatusNotFound
	case errors.Is(err, ErrAmbiguousBase):
		return http.StatusConflict
	case errors.Is(err, ErrNoPlatform), errors.Is(err, ErrBothPlatform), errors.Is(err, ErrTooSmall),
		errors.Is(err, ErrBadRequest),
		errors.Is(err, platform.ErrBadDelta), errors.Is(err, platform.ErrDeltaState),
		errors.Is(err, platform.ErrNodeRange), errors.Is(err, platform.ErrNotReachable),
		errors.Is(err, platform.ErrNoNodes):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// Headers are out; the best left is a JSON error body.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	data = append(data, '\n')
	w.Write(data)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
