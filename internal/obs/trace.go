package obs

import "context"

// SpanKind names one typed span event of a request trace. The taxonomy
// covers the whole request path: routing (lookup), admission control
// (admit, queue-wait), the solver (solve, refine), degraded mode
// (degraded), cancellation (cancel), the delta path (base) and the HTTP
// response write (response).
type SpanKind string

const (
	// SpanLookup is the cache routing decision: hit, miss (with the twin
	// flag), or a hit that collapsed onto an in-flight identical solve.
	SpanLookup SpanKind = "lookup"
	// SpanBase is the delta path's base resolution: the cached base entry
	// was found and its warm session taken (Warm) or re-derived.
	SpanBase SpanKind = "base"
	// SpanAdmit is the admission decision of a cold-miss solve: admitted
	// (a lane now or after a queue wait — the split is scheduling-dependent
	// and deliberately not recorded) or shed under overload.
	SpanAdmit SpanKind = "admit"
	// SpanQueueWait reports time spent waiting for a solve lane. It is
	// wall-clock data, so it is emitted only by a WallClock tracer.
	SpanQueueWait SpanKind = "queue-wait"
	// SpanSolve is one steady-state solve: cutting-plane rounds, cuts, the
	// simplex pivot counts (warm/cold split) and cold master solves of this
	// resolve, sourced from the master LP's solve statistics, and the
	// separation max-flow count.
	SpanSolve SpanKind = "solve"
	// SpanDegraded is the immediate heuristic answer of degraded mode.
	SpanDegraded SpanKind = "degraded"
	// SpanRefine is the background LP refinement of a degraded entry; it
	// appears in its own trace (outcome "refine") sharing the request's
	// identity, since the client's trace finished with the degraded answer.
	SpanRefine SpanKind = "refine"
	// SpanCancel marks the point where a request was abandoned by its
	// context (At: queue, collapsed-wait, refined-wait, base-wait, solve).
	SpanCancel SpanKind = "cancel"
	// SpanResponse is the HTTP response write (status code); in-process
	// replays never emit it.
	SpanResponse SpanKind = "response"
)

// Trace outcomes. A trace has exactly one, assigned when it finishes.
const (
	// OutcomeHit: served from the cache (solve long finished).
	OutcomeHit = "hit"
	// OutcomeCollapsed: hit on an in-flight solve; the request waited on it
	// (singleflight) instead of duplicating the work.
	OutcomeCollapsed = "collapsed"
	// OutcomeMiss: the request claimed a new cache entry and solved.
	OutcomeMiss = "miss"
	// OutcomeShed: rejected under the overload contract (429).
	OutcomeShed = "shed"
	// OutcomeCanceled: abandoned by deadline/cancellation anywhere in the
	// path.
	OutcomeCanceled = "canceled"
	// OutcomeDegraded: answered immediately with the degraded heuristic
	// plan while the LP refinement runs in the background.
	OutcomeDegraded = "degraded"
	// OutcomeRefine: a background refinement solve (no client attached).
	OutcomeRefine = "refine"
	// OutcomeError: the request failed (solver trouble, bad deltas, ...).
	OutcomeError = "error"
)

// Event is one typed span event. Kind selects the span type; every other
// field is meaningful only for the kinds documented on it and is omitted
// from JSON at its zero value, so canonical event sequences stay compact
// and deterministic. TNs (nanoseconds since the trace started) is stamped
// only by a WallClock tracer.
type Event struct {
	Kind SpanKind `json:"kind"`
	// Lookup fields.
	Miss      bool `json:"miss,omitempty"`
	Twin      bool `json:"twin,omitempty"`
	Collapsed bool `json:"collapsed,omitempty"`
	// Base / solve: the warm-session flag.
	Warm bool `json:"warm,omitempty"`
	// Admit: "admitted" or "shed".
	Admitted string `json:"admitted,omitempty"`
	// Solve / refine statistics (per this resolve).
	Rounds     int `json:"rounds,omitempty"`
	Cuts       int `json:"cuts,omitempty"`
	Pivots     int `json:"pivots,omitempty"`
	WarmPivots int `json:"warmPivots,omitempty"`
	ColdPivots int `json:"coldPivots,omitempty"`
	// ColdSolves counts the master solves of this resolve that ran cold. A
	// healthy cold plan reads 1 (the first solve) and a warm delta 0;
	// anything larger is a warm re-solve that stalled and fell back.
	ColdSolves int `json:"coldSolves,omitempty"`
	// Solve: the fresh max-flows cut separation ran, the destinations its
	// chained flow certified instead (every round decides each alive
	// destination once, by one or the other), and the wall-clock time
	// separation took — the solve's other large stage besides the master
	// LP. Like DurNs, SepNs is set only on WallClock traces.
	Flows     int   `json:"flows,omitempty"`
	Certified int   `json:"certified,omitempty"`
	SepNs     int64 `json:"sepNs,omitempty"`
	// Solve, when the plan asked for trees: the restricted-master solves and
	// simplex pivots of the tree packing that followed the resolve, and the
	// packing's wall-clock time — beside DurNs, which times the resolve
	// alone, not inside it, and like it set only on WallClock traces.
	PackRounds int   `json:"packRounds,omitempty"`
	PackPivots int   `json:"packPivots,omitempty"`
	PackNs     int64 `json:"packNs,omitempty"`
	// Degraded: the heuristic that produced the immediate answer.
	Heuristic string `json:"heuristic,omitempty"`
	// Cancel: where the request was abandoned.
	At string `json:"at,omitempty"`
	// DurNs is the span's own wall-clock duration (queue-wait, solve,
	// refine); producers set it only on WallClock traces.
	DurNs int64 `json:"durNs,omitempty"`
	// Response: the HTTP status code.
	Status int `json:"status,omitempty"`
	// Err carries the error string of a failed solve/refine (diagnostic; a
	// canonical replay never produces one).
	Err string `json:"err,omitempty"`
	// TNs is the wall-clock offset from the trace start (opt-in).
	TNs int64 `json:"tNs,omitempty"`
}

// Trace is the record of one request: its ID, outcome, and ordered span
// events. A Trace is written by the single goroutine serving the request
// and is immutable once finished; nil *Trace receivers are no-ops, so
// untraced engines pay only a nil check per event.
type Trace struct {
	// ID identifies the trace: content-derived and deterministic for a
	// deterministic tracer, unique-per-process for a WallClock tracer (the
	// HTTP layer's request-scoped ID, returned in X-Bcast-Trace).
	ID string `json:"id"`
	// Key is the hex prefix of the request's cache-key identity (the same
	// identity renumbered duplicates share), linking traces to plans.
	Key string `json:"key,omitempty"`
	// Outcome classifies the request: hit, collapsed, miss, shed, canceled,
	// degraded, refine, error.
	Outcome string `json:"outcome"`
	// StartNs/DurNs are wall-clock fields, present only under WallClock.
	StartNs int64 `json:"startNs,omitempty"`
	DurNs   int64 `json:"durNs,omitempty"`
	// Events is the ordered span sequence.
	Events []Event `json:"events"`

	identity [32]byte
	hasID    bool // ID was assigned at Begin (WallClock mode)
	wall     bool
	startNs  int64 // monotonic-ish wall ns at Begin (WallClock only)
}

// Add appends one span event. On a WallClock trace the event is stamped
// with its offset from the trace start. Safe on a nil trace.
func (t *Trace) Add(ev Event) {
	if t == nil {
		return
	}
	if t.wall {
		ev.TNs = wallNow() - t.startNs
	}
	t.Events = append(t.Events, ev)
}

// SetIdentity records the request's cache-key identity (any 32-byte content
// hash; the engine uses a hash of its cache key). It drives the
// deterministic trace ID and the ring-buffer shard. Safe on a nil trace.
func (t *Trace) SetIdentity(id [32]byte) {
	if t == nil {
		return
	}
	t.identity = id
}

// Wall reports whether the trace records wall-clock fields; the engine uses
// it to gate the emission of wall-only spans (queue-wait). Safe on a nil
// trace (false).
func (t *Trace) Wall() bool { return t != nil && t.wall }

// TraceID returns the trace's ID ("" for a nil trace). In WallClock mode the
// ID exists from Begin; in deterministic mode only after Finish.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.ID
}

// requestIDKey carries the HTTP layer's request-scoped trace ID through the
// context into the engine, so the trace recorded for a request reuses the
// ID already promised in the X-Bcast-Trace response header.
type requestIDKey struct{}

// WithRequestID returns a context carrying the request-scoped trace ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID extracts the request-scoped trace ID ("" when absent or ctx is
// nil).
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// traceKey carries an externally owned *Trace through the context: when the
// HTTP layer begins the trace (so it can append the response-write span after
// the engine returns), the engine appends its spans to that trace instead of
// beginning and finishing its own.
type traceKey struct{}

// WithTrace returns a context carrying an externally owned trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the externally owned trace (nil when absent or ctx is
// nil).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
