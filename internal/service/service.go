package service

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/steady"
	"repro/internal/throughput"
)

// Errors returned by the engine.
var (
	ErrNoPlatform   = errors.New("service: request has no platform")
	ErrBothPlatform = errors.New("service: request sets both platform and base; exactly one is allowed")
	ErrTooSmall     = errors.New("service: platform needs at least 2 alive nodes")
	ErrUnknownBase  = errors.New("service: base fingerprint not in cache")
	// ErrAmbiguousBase means the base fingerprint matches several cached
	// platforms (renumbered twins fold onto one fingerprint): the request
	// must pin the intended one with BaseExact, the exactKey of its plan.
	ErrAmbiguousBase = errors.New("service: base fingerprint matches several cached twins; set baseExact")
	// ErrBadRequest wraps malformed request fields (unparseable
	// fingerprints, unknown heuristic or profile names).
	ErrBadRequest = errors.New("service: bad request")
	// ErrCanceled identifies a deadline/cancellation outcome anywhere in the
	// stack: it is the lp.ErrCanceled sentinel re-exported, so
	// errors.Is(err, service.ErrCanceled) matches whether the request died
	// waiting in the admission queue, waiting on a collapsed solve, or
	// mid-pivot inside the simplex.
	ErrCanceled = lp.ErrCanceled
	// ErrOverloaded is the sentinel matched by errors.Is for shed requests;
	// the concrete error is always an *OverloadedError carrying the
	// suggested Retry-After. The message is deliberately constant (no
	// durations) so error strings are byte-stable across runs.
	ErrOverloaded = errors.New("service: overloaded: solve lanes and admission queue are full")
)

// OverloadedError is returned when a cold miss is shed: the solve pool and
// the bounded admission queue are both full. RetryAfter is a back-off
// suggestion derived from the observed solve-latency histogram (roughly the
// time to drain the current backlog), clamped to [1s, 60s]; the HTTP layer
// surfaces it as a Retry-After header on the 429 response.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string { return ErrOverloaded.Error() }

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// canceled builds the error for a request abandoned because its context was
// done, preserving the ErrCanceled sentinel.
func canceled(ctx context.Context) error {
	return fmt.Errorf("service: %w: %v", ErrCanceled, ctx.Err())
}

// Config tunes an Engine.
type Config struct {
	// CacheSize bounds the number of cached plans (default 256). Least
	// recently used entries are evicted.
	CacheSize int
	// Workers bounds the number of concurrent solves (default: number of
	// CPUs). Requests beyond the bound queue; cache hits never queue.
	Workers int
	// QueueDepth bounds the admission queue for cold-miss solves: when every
	// solve lane is busy, up to QueueDepth requests wait their turn and any
	// further cold miss is shed immediately with an *OverloadedError (HTTP
	// 429 + Retry-After). Zero keeps the pre-admission-control behavior: an
	// unbounded queue that never sheds. Cache hits and collapsed
	// singleflight waits never touch the queue (priority lanes).
	QueueDepth int
	// DefaultDeadline, when positive, bounds every request that does not
	// carry its own deadlineMs: the solve is canceled (ErrCanceled, HTTP
	// 504) once the deadline expires. Zero means no server-side deadline.
	DefaultDeadline time.Duration
	// Steady is the steady-state solver configuration of every plan solve
	// (nil = the solver's defaults; churn replays always use those). It is
	// the one place solver tuning enters the engine: no request carries any,
	// so it is not part of the cache key.
	Steady *steady.Options
	// DisableSessions drops the warm solver session (master LP basis and
	// cut pool) after each solve instead of retaining it on the cache entry.
	// Delta requests then always re-derive a fresh session from the entry's
	// platform snapshot. Use it for plan-only workloads — the sweep engine
	// does — where retained masters would be dead weight.
	DisableSessions bool
	// Hooks, when non-nil, exposes engine-internal events to instrumentation
	// (metrics exporters, the load harness's deterministic burst gate). A nil
	// Hooks — and any nil callback — costs nothing.
	Hooks *Hooks
	// Tracer, when non-nil, records a per-request trace (typed span events:
	// lookup, admission, queue wait, solve, degraded answer, background
	// refinement, cancellation) into its ring buffer; GET /v1/trace serves the
	// retained traces. A nil Tracer costs one nil check per request.
	Tracer *obs.Tracer
}

// Hooks are the engine's instrumentation points. Both callbacks may be
// invoked concurrently from many request goroutines.
type Hooks struct {
	// OnLookup fires once per plan request, under the engine lock, at the
	// moment the request is routed: a miss has just claimed its cache entry,
	// a hit is about to use (or wait on) an existing one. It must return
	// quickly and must not call back into the engine.
	OnLookup func(LookupEvent)
	// BeforeSolve fires on the solving goroutine after it has claimed the
	// cache entry and a worker slot, immediately before the solver runs.
	// Blocking inside it delays the solve (and every request collapsed onto
	// it); the load harness uses this to hold a solve until a whole burst of
	// identical requests has demonstrably registered, making singleflight
	// counters deterministic. Background refinement solves (degraded mode)
	// do not fire it.
	BeforeSolve func()
	// OnAdmit fires once per admission decision for a cold-miss (or churn)
	// solve: lane taken directly, queued behind busy lanes, or shed. It
	// fires on the requesting goroutine, outside the engine lock; the load
	// harness uses it to sequence overload storms deterministically.
	// Background refinement solves do not fire it.
	OnAdmit func(AdmitEvent)
}

// AdmitKind classifies one admission decision.
type AdmitKind int

const (
	// AdmitLane: a free solve lane was claimed directly.
	AdmitLane AdmitKind = iota
	// AdmitQueued: all lanes busy; the request waits in the admission queue
	// (bounded when Config.QueueDepth > 0, unbounded otherwise).
	AdmitQueued
	// AdmitShed: lanes and bounded queue both full; the request was rejected
	// with an *OverloadedError.
	AdmitShed
)

// String returns a human-readable admission kind.
func (k AdmitKind) String() string {
	switch k {
	case AdmitLane:
		return "lane"
	case AdmitQueued:
		return "queued"
	case AdmitShed:
		return "shed"
	default:
		return fmt.Sprintf("AdmitKind(%d)", int(k))
	}
}

// AdmitEvent describes one admission decision.
type AdmitEvent struct {
	Kind AdmitKind
}

// LookupEvent describes one routed plan request.
type LookupEvent struct {
	// Miss reports that the request claimed a new cache entry and will solve.
	Miss bool
	// Twin reports a miss whose fingerprint was already cached under a
	// different exact encoding (a renumbered twin).
	Twin bool
	// Collapsed reports a hit on an entry whose solve is still in flight:
	// the request will wait on that solve instead of starting its own.
	Collapsed bool
}

func (c Config) cacheSize() int {
	if c.CacheSize > 0 {
		return c.CacheSize
	}
	return 256
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// PlanRequest asks for the optimal steady-state broadcast plan of a platform.
// Exactly one of Platform and Base must be set: Platform carries the full
// platform, Base addresses a previously planned platform by fingerprint and
// Deltas mutates it (the near-duplicate fast path).
type PlanRequest struct {
	// Platform is the full platform to plan for.
	Platform *platform.Platform `json:"platform,omitempty"`
	// Base is the fingerprint (hex) of a previously planned platform; Deltas
	// are applied to it in order. The base request's Source, Heuristic and
	// Trees must be repeated for the cache key to resolve.
	Base   string           `json:"base,omitempty"`
	Deltas []platform.Delta `json:"deltas,omitempty"`
	// BaseExact optionally pins the exact cached platform the Base
	// fingerprint refers to (the exactKey of its plan). Required only when
	// renumbered twins sharing the fingerprint are cached side by side —
	// deltas address links by ID, so the engine refuses to guess between
	// twins (ErrAmbiguousBase).
	BaseExact string `json:"baseExact,omitempty"`
	// Source is the broadcast source processor.
	Source int `json:"source"`
	// Heuristic optionally names a tree heuristic to build and evaluate on
	// top of the optimal edge rates (empty = LP optimum only).
	Heuristic string `json:"heuristic,omitempty"`
	// Trees, when positive, asks for a k-tree plan: the optimal edge rates
	// are decomposed into a weighted packing of at most Trees broadcast
	// trees (Plan.Packing). The packing achieves the LP throughput when the
	// cap is generous; a tight cap truncates to the heaviest trees and
	// reports the honest reduced throughput. Part of the cache identity.
	Trees int `json:"trees,omitempty"`
	// DeadlineMs bounds this request in milliseconds: the solve is canceled
	// (ErrCanceled, HTTP 504) once the budget expires. Zero falls back to
	// the engine's DefaultDeadline (which may itself be "none"). Not part
	// of the cache identity.
	DeadlineMs int `json:"deadlineMs,omitempty"`
	// Degraded opts into degraded mode: a cold miss is answered immediately
	// with the engine's cheap heuristic tree (PlanResult.Degraded and
	// Plan.Degraded set) while the LP-optimal solve runs — and updates the
	// cache entry — in the background. Hits on an already-refined entry
	// return the optimal plan as usual. Not part of the cache identity.
	Degraded bool `json:"degraded,omitempty"`
}

// Plan is a solved broadcast plan. It is immutable once cached: the engine
// hands out the same marshaled bytes for every cache hit.
type Plan struct {
	// Fingerprint is the canonical content fingerprint of the planned
	// platform (hex); delta requests can use it as their next Base.
	Fingerprint string `json:"fingerprint"`
	// ExactKey is the hash of the platform's exact canonical encoding in
	// its own node/link numbering (hex). Unlike the fingerprint it
	// distinguishes renumbered twins; delta requests pass it as BaseExact
	// when the fingerprint alone is ambiguous.
	ExactKey string `json:"exactKey"`
	Source   int    `json:"source"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	// Throughput and UpperBound are the optimal steady-state MTP throughput
	// and the final master LP bound; EdgeRate are the per-link optimal rates.
	Throughput float64   `json:"throughput"`
	UpperBound float64   `json:"upperBound"`
	EdgeRate   []float64 `json:"edgeRate"`
	// LP statistics of the solve that produced the plan.
	LPRounds     int `json:"lpRounds"`
	LPCuts       int `json:"lpCuts"`
	LPPivots     int `json:"lpPivots"`
	LPWarmPivots int `json:"lpWarmPivots,omitempty"`
	LPColdPivots int `json:"lpColdPivots,omitempty"`
	// LPColdSolves is how many of the solve's master solves ran cold: 1 on a
	// healthy cold plan (the first), 0 on a warm delta, more when warm
	// attempts fell back. It goes to the solve/refine span, not into the
	// plan's bytes.
	LPColdSolves int `json:"-"`
	// Heuristic outcome (only when the request named one). The binomial
	// heuristic produces a routed schedule, so Tree may be nil even with a
	// throughput.
	Heuristic           string         `json:"heuristic,omitempty"`
	Tree                *platform.Tree `json:"tree,omitempty"`
	HeuristicThroughput float64        `json:"heuristicThroughput,omitempty"`
	Ratio               float64        `json:"ratio,omitempty"`
	// k-tree packing outcome (only when the request set Trees > 0):
	// Packing is the weighted tree decomposition of EdgeRate,
	// PackedThroughput its combined rate, PackedTrees the tree count and
	// PackedRatio the packed/LP throughput ratio (1 within tolerance unless
	// the tree cap truncated the packing).
	Packing          *steady.Packing `json:"packing,omitempty"`
	PackedThroughput float64         `json:"packedThroughput,omitempty"`
	PackedTrees      int             `json:"packedTrees,omitempty"`
	PackedRatio      float64         `json:"packedRatio,omitempty"`
	// Degraded marks a heuristic-only answer served by degraded mode before
	// its background LP refinement landed: Throughput is then the heuristic
	// tree's throughput (a lower bound), EdgeRate is absent and the LP
	// counters are zero.
	Degraded bool `json:"degraded,omitempty"`
}

// PlanResult is the engine's answer to one plan request.
type PlanResult struct {
	// Plan is the solved plan (shared with the cache; treat as read-only).
	Plan *Plan
	// JSON is the canonical marshaled form of Plan. Cache hits return a copy
	// of the exact bytes of the original solve.
	JSON []byte
	// Cached reports that the plan was served from the cache.
	Cached bool
	// Collapsed reports that the request arrived while an identical solve
	// was in flight and waited on it (singleflight). Collapsed implies
	// Cached.
	Collapsed bool
	// WarmResolved reports that a delta request reused the base entry's warm
	// session instead of cold-solving.
	WarmResolved bool
	// Degraded reports that the answer is a degraded-mode heuristic plan
	// (the background refinement had not landed yet).
	Degraded bool
	// TraceID is the request's trace ID when the engine (or the HTTP layer)
	// traced it: deterministic tracers assign it when the trace finishes,
	// WallClock tracers at Begin. Empty when tracing is off.
	TraceID string
}

// Stats is a snapshot of the engine counters. Every field marshals, zero or
// not: it is the "engine" member of GET /v1/metrics, and a dashboard must
// tell "no shedding happened" from "not reported".
type Stats struct {
	// Requests = Hits + Misses, on every path including errors: a request
	// that waited on a solve which then failed — and a request abandoned by
	// its own deadline — counts as a Miss (it got no plan). TwinMisses
	// (fingerprint matched but content differed: a renumbered twin or hash
	// collision) are a subset of Misses. Singleflight counts requests that
	// found their solve already in flight and waited on it instead of
	// duplicating it; it is counted at lookup classification — the same
	// moment LookupEvent{Collapsed: true} fires — so the hook-side and
	// stats-side views agree even when the collapsed-onto solve fails.
	// (Successful collapsed waits are a subset of Hits; failed ones land in
	// Misses, so Singleflight is not a subset of Hits on error paths.)
	Requests     int64 `json:"requests"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	TwinMisses   int64 `json:"twinMisses"`
	Singleflight int64 `json:"singleflight"`
	Evictions    int64 `json:"evictions"`
	// EvictionsDeferred counts eviction scans that skipped an in-flight
	// entry (solve not finished): evicting one would break the singleflight
	// invariant, so the cache temporarily exceeds capacity instead.
	EvictionsDeferred int64 `json:"evictionsDeferred"`
	// Admission-control outcomes for cold-miss solves: Queued waited behind
	// busy lanes, Shed were rejected with an *OverloadedError, Canceled
	// were abandoned by their context (in the queue, on a collapsed wait,
	// or mid-solve).
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`
	Canceled int64 `json:"canceled"`
	// Degraded-mode outcomes: Degraded counts heuristic-only answers served
	// immediately, Refines the background LP solves that later replaced
	// them in the cache, RefineFailures the refinements that failed (the
	// degraded plan then stays, still flagged Degraded).
	Degraded       int64 `json:"degraded"`
	Refines        int64 `json:"refines"`
	RefineFailures int64 `json:"refineFailures"`
	// Solves counts the actual solver runs; DeltaPlans the requests served
	// through the base+deltas path, split into warm session reuses and
	// session rebuilds.
	Solves          int64 `json:"solves"`
	DeltaPlans      int64 `json:"deltaPlans"`
	WarmResolves    int64 `json:"warmResolves"`
	SessionRebuilds int64 `json:"sessionRebuilds"`
	// Simplex pivot totals across all solves, split warm/cold.
	LPPivots     int64 `json:"lpPivots"`
	LPWarmPivots int64 `json:"lpWarmPivots"`
	LPColdPivots int64 `json:"lpColdPivots"`
	// Cut-separation totals across all completed solves: the fresh
	// max-flows, and the destinations the chained flow certified instead.
	SepMaxFlows  int64 `json:"sepMaxFlows"`
	SepCertified int64 `json:"sepCertified"`
	// ChurnRuns counts churn-replay requests.
	ChurnRuns int64 `json:"churnRuns"`
	// Cache occupancy and configuration.
	CacheEntries  int `json:"cacheEntries"`
	CacheCapacity int `json:"cacheCapacity"`
	Workers       int `json:"workers"`
	QueueDepth    int `json:"queueDepth"`
}

// planParams are the request parameters that change the answer; both cache
// indexes carry them next to a platform identity.
type planParams struct {
	source    int
	heuristic string
	trees     int
}

// cacheKey identifies one cacheable plan, and is all a lookup needs: the hash
// of the platform's exact canonical encoding plus the plan parameters.
// Renumbered twins do NOT share it — so a cached plan (whose edge rates and
// trees are expressed in link/node IDs) is never served across a renumbering
// — and a repeat request is recognised without computing a fingerprint.
type cacheKey struct {
	exact [32]byte
	planParams
}

// fpKey keys the twin/base index: the permutation-invariant fingerprint plus
// the plan parameters. Renumbered twins share an fpKey. It is computed only
// once a request has missed on its cacheKey.
type fpKey struct {
	fp platform.Fingerprint
	planParams
}

// platformID is the pair of identities a Plan reports for its platform.
type platformID struct {
	fp    platform.Fingerprint
	exact [32]byte
}

// exactHash hashes the platform's exact canonical encoding.
func exactHash(p *platform.Platform) [32]byte {
	return sha256.Sum256(p.CanonicalEncoding())
}

// entry is one cached plan plus (while it lasts) a warm solver session
// pinned to the entry's platform state.
type entry struct {
	key cacheKey
	// fp is the platform's fingerprint, computed when the entry was claimed;
	// with the key's parameters it is the entry's place in byFP.
	fp platform.Fingerprint

	ready chan struct{} // closed once plan/err are set
	// refined is non-nil iff the entry was created by a degraded request:
	// it is closed once the background refinement finished (successfully or
	// not). Requests that did not opt into degraded mode wait on it before
	// consuming the plan. Immutable after insert.
	refined chan struct{}
	err     error

	mu sync.Mutex // guards every field below
	// plan/json start as the degraded heuristic plan (Plan.Degraded set)
	// for degraded entries and are swapped for the refined LP plan when it
	// lands. For normal entries they are written once before ready closes
	// and never change.
	plan *Plan
	json []byte
	// plat is an immutable snapshot of the planned platform; sessions are
	// re-derived from it when the live one has moved on.
	plat *platform.Platform
	// session/sessionP, when non-nil, hold a warm steady session whose
	// platform is exactly at the entry's state. A delta request takes them
	// (they follow the mutation to the new entry).
	session  *steady.Session
	sessionP *platform.Platform
}

// Engine is the concurrent planning engine: a cache of solved plans looked up
// by exact platform hash, with fingerprints for twins and delta bases. It is
// safe for concurrent use.
type Engine struct {
	cfg Config
	sem chan struct{} // bounded worker pool for solver work
	// queue is the bounded admission queue for cold-miss solves (nil when
	// QueueDepth is 0: unbounded waiting, never shed). A token in the queue
	// is a request allowed to block on sem; when both are full, acquire
	// sheds.
	queue chan struct{}
	bg    sync.WaitGroup // in-flight background refinements

	// Solve-stage histograms. solveNs records the wall-clock latency of
	// completed solves (Retry-After suggestions for shed requests derive from
	// it), queueWaitNs the admission wait of admitted solves, refineNs the
	// end-to-end latency of background refinements — all three are wall-clock
	// data, exported via /metrics but never via canonical replay reports.
	// solvePivots/solveRounds/solveCuts record the per-solve LP work and are
	// deterministic for a deterministic request set.
	latMu       sync.Mutex
	solveNs     stats.Histogram // guarded by latMu
	queueWaitNs stats.Histogram // guarded by latMu
	refineNs    stats.Histogram // guarded by latMu
	solvePivots stats.Histogram // guarded by latMu
	solveRounds stats.Histogram // guarded by latMu
	solveCuts   stats.Histogram // guarded by latMu

	mu    sync.Mutex
	lru   *list.List                 // guarded by mu; of *entry, most recently used in front
	byKey map[cacheKey]*list.Element // guarded by mu
	// byFP indexes the cached entries by fingerprint, for twin detection and
	// for resolving a delta request's base; the slice holds more than one
	// element only when renumbered twins are cached side by side.
	byFP  map[fpKey][]*list.Element // guarded by mu
	stats Stats                     // guarded by mu
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.workers()),
		lru:   list.New(),
		byKey: make(map[cacheKey]*list.Element),
		byFP:  make(map[fpKey][]*list.Element),
	}
	if cfg.QueueDepth > 0 {
		e.queue = make(chan struct{}, cfg.QueueDepth)
	}
	return e
}

// Drain blocks until every background refinement currently in flight has
// completed and updated its cache entry. Deterministic replays call it
// before snapshotting counters; servers call it on shutdown.
func (e *Engine) Drain() { e.bg.Wait() }

// insertLocked adds a claimed entry to the cache and evicts over capacity.
// The engine mutex must be held.
func (e *Engine) insertLocked(ent *entry) {
	el := e.lru.PushFront(ent)
	e.byKey[ent.key] = el
	fk := ent.fpKey()
	e.byFP[fk] = append(e.byFP[fk], el)
	e.trimLocked()
}

func (ent *entry) fpKey() fpKey { return fpKey{fp: ent.fp, planParams: ent.key.planParams} }

func (ent *entry) id() platformID { return platformID{fp: ent.fp, exact: ent.key.exact} }

// entryDone reports whether the entry's solve has finished (ready closed).
func entryDone(ent *entry) bool {
	select {
	case <-ent.ready:
		return true
	default:
		return false
	}
}

// trimLocked evicts least-recently-used entries while the cache is over
// capacity — but never an in-flight one: evicting an entry whose solve has
// not finished would detach it from the cache, so a concurrent identical
// request would miss and duplicate the solve, silently breaking the "one
// solve per distinct platform" singleflight invariant. In-flight entries are
// skipped (counted in EvictionsDeferred) and the cache stays over capacity
// until a later insert or solve completion trims it. The engine mutex must
// be held.
func (e *Engine) trimLocked() {
	for e.lru.Len() > e.cfg.cacheSize() {
		var victim *list.Element
		for el := e.lru.Back(); el != nil; el = el.Prev() {
			if entryDone(el.Value.(*entry)) {
				victim = el
				break
			}
			e.stats.EvictionsDeferred++
		}
		if victim == nil {
			return // everything is in flight; stay over capacity for now
		}
		e.removeLocked(victim)
		e.stats.Evictions++
	}
}

// removeLocked drops an element from the LRU list and both indexes. The
// engine mutex must be held.
func (e *Engine) removeLocked(el *list.Element) {
	ent := el.Value.(*entry)
	e.lru.Remove(el)
	delete(e.byKey, ent.key)
	fk := ent.fpKey()
	twins := e.byFP[fk]
	for i, t := range twins {
		if t == el {
			twins = append(twins[:i], twins[i+1:]...)
			break
		}
	}
	if len(twins) == 0 {
		delete(e.byFP, fk)
	} else {
		e.byFP[fk] = twins
	}
}

// hook delivers a lookup event to the configured instrumentation. The
// engine mutex is held by the caller.
func (e *Engine) hook(ev LookupEvent) {
	if e.cfg.Hooks != nil && e.cfg.Hooks.OnLookup != nil {
		e.cfg.Hooks.OnLookup(ev)
	}
}

// admit delivers an admission event to the configured instrumentation. It is
// called outside the engine lock.
func (e *Engine) admit(kind AdmitKind) {
	if e.cfg.Hooks != nil && e.cfg.Hooks.OnAdmit != nil {
		e.cfg.Hooks.OnAdmit(AdmitEvent{Kind: kind})
	}
}

// acquire claims a solve lane for a request-path solve, applying admission
// control: a free lane is taken directly; otherwise the request enters the
// admission queue (bounded by QueueDepth when set) and blocks until a lane
// frees or its context is done; when lanes and bounded queue are both full
// it is shed with an *OverloadedError. The returned release function frees
// the lane. Cache hits and collapsed waits never call acquire.
func (e *Engine) acquire(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
		e.admit(AdmitLane)
		return e.releaseLane, nil
	default:
	}
	if e.queue != nil {
		select {
		case e.queue <- struct{}{}:
			// Hold the queue token while blocked on a lane; freed on return.
			defer func() { <-e.queue }()
		default:
			e.mu.Lock()
			e.stats.Shed++
			e.mu.Unlock()
			e.admit(AdmitShed)
			return nil, &OverloadedError{RetryAfter: e.retryAfter()}
		}
	}
	e.mu.Lock()
	e.stats.Queued++
	e.mu.Unlock()
	e.admit(AdmitQueued)
	select {
	case e.sem <- struct{}{}:
		return e.releaseLane, nil
	case <-ctx.Done():
		return nil, canceled(ctx)
	}
}

func (e *Engine) releaseLane() { <-e.sem }

// retryAfter estimates how long a shed client should back off: the observed
// median solve latency scaled by the backlog a retry would sit behind,
// rounded up to whole seconds and clamped to [1s, 60s]. With no completed
// solves yet it defaults to 1s.
func (e *Engine) retryAfter() time.Duration {
	e.latMu.Lock()
	var p50 int64
	if e.solveNs.Count() > 0 {
		p50 = e.solveNs.Quantile(0.5)
	}
	e.latMu.Unlock()
	if p50 <= 0 {
		return time.Second
	}
	backlog := int64(len(e.queue)) + 1 // racy read; an estimate is fine
	est := time.Duration(p50 * backlog / int64(cap(e.sem)))
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// StageStats is a snapshot of the engine's solve-stage histograms. The
// latency members (solve, queue wait, refine) are wall-clock data; the LP
// work members (pivots, rounds, cuts per solve) are deterministic for a
// deterministic request set and safe for canonical replay reports.
type StageStats struct {
	SolveLatencyNs  stats.HistogramSummary `json:"solveLatencyNs"`
	QueueWaitNs     stats.HistogramSummary `json:"queueWaitNs"`
	RefineLatencyNs stats.HistogramSummary `json:"refineLatencyNs"`
	SolvePivots     stats.HistogramSummary `json:"solvePivots"`
	SolveRounds     stats.HistogramSummary `json:"solveRounds"`
	SolveCuts       stats.HistogramSummary `json:"solveCuts"`
}

// StageStats returns a snapshot of the solve-stage histograms.
func (e *Engine) StageStats() StageStats {
	e.latMu.Lock()
	defer e.latMu.Unlock()
	return StageStats{
		SolveLatencyNs:  e.solveNs.Summary(),
		QueueWaitNs:     e.queueWaitNs.Summary(),
		RefineLatencyNs: e.refineNs.Summary(),
		SolvePivots:     e.solvePivots.Summary(),
		SolveRounds:     e.solveRounds.Summary(),
		SolveCuts:       e.solveCuts.Summary(),
	}
}

// Tracer returns the engine's configured tracer (nil when tracing is off);
// the HTTP layer serves GET /v1/trace from it.
func (e *Engine) Tracer() *obs.Tracer { return e.cfg.Tracer }

// TraceOutcome classifies a plan result/error pair into the trace outcome
// taxonomy (obs.Outcome*): degraded fresh answers, collapsed singleflight
// hits, plain hits, misses, shed, canceled and error. The engine applies it
// when it owns the request's trace; the HTTP layer reuses it when the trace
// spans the response write.
func TraceOutcome(res *PlanResult, err error) string {
	switch {
	case err == nil && res != nil:
		switch {
		case res.Degraded && !res.Cached:
			return obs.OutcomeDegraded
		case res.Collapsed:
			return obs.OutcomeCollapsed
		case res.Cached:
			return obs.OutcomeHit
		default:
			return obs.OutcomeMiss
		}
	case errors.Is(err, ErrOverloaded):
		return obs.OutcomeShed
	case errors.Is(err, ErrCanceled):
		return obs.OutcomeCanceled
	default:
		return obs.OutcomeError
	}
}

// traceIdentity derives the 32-byte content identity a trace carries: the
// hash of the platform's exact canonical encoding plus every request knob
// that changes the answer — the same information that keys the cache, so
// renumbered duplicates of one request class share an identity.
func traceIdentity(key cacheKey) [32]byte {
	h := sha256.New()
	h.Write(key.exact[:])
	// The literal 0 stands for a retired per-request pivot budget that no
	// CLI, load mix or benchmark ever set; keeping it keeps trace IDs stable.
	fmt.Fprintf(h, "|%d|%s|0|%d", key.source, key.heuristic, key.trees)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.CacheEntries = e.lru.Len()
	s.CacheCapacity = e.cfg.cacheSize()
	s.Workers = cap(e.sem)
	s.QueueDepth = e.cfg.QueueDepth
	return s
}

func (req PlanRequest) params() planParams {
	return planParams{source: req.Source, heuristic: req.Heuristic, trees: req.Trees}
}

// Plan answers one plan request: from the cache when the platform has been
// planned before, otherwise by solving (bounded by the worker pool) and
// caching the result. Delta requests (Base + Deltas) reuse the base entry's
// warm session when one is available.
func (e *Engine) Plan(req PlanRequest) (*PlanResult, error) {
	return e.PlanContext(context.Background(), req)
}

// PlanContext is Plan with cooperative cancellation and deadlines: the
// context (plus the request's DeadlineMs or the engine's DefaultDeadline)
// bounds admission waits, collapsed singleflight waits and the solve's own
// simplex pivots. A canceled request returns an error wrapping ErrCanceled
// and never leaves a cache entry or a poisoned warm session behind. A nil
// ctx is treated as context.Background().
func (e *Engine) PlanContext(ctx context.Context, req PlanRequest) (res *PlanResult, err error) {
	ctx, cancel := e.requestContext(ctx, req.DeadlineMs)
	if cancel != nil {
		defer cancel()
	}
	// An externally owned trace (the HTTP layer's, which outlives this call
	// to record the response write) is appended to; otherwise the engine owns
	// the request's trace end to end.
	tc := obs.TraceFrom(ctx)
	owned := tc == nil && e.cfg.Tracer != nil
	if owned {
		tc = e.cfg.Tracer.Begin(obs.RequestID(ctx))
	}
	if tc != nil {
		defer func() {
			// A deterministic tracer assigns the ID when the trace finishes.
			if owned {
				e.cfg.Tracer.Finish(tc, TraceOutcome(res, err))
			}
			if res != nil {
				res.TraceID = tc.TraceID()
			}
		}()
	}
	if req.Base != "" {
		if req.Platform != nil {
			return nil, ErrBothPlatform
		}
		return e.planFromBase(ctx, req, tc)
	}
	if req.Platform == nil {
		return nil, ErrNoPlatform
	}
	return e.planPlatform(ctx, req, req.Platform, nil, tc)
}

// requestContext layers the request deadline (DeadlineMs, else the engine's
// DefaultDeadline) onto the caller's context. The returned cancel is nil
// when no deadline applies.
func (e *Engine) requestContext(ctx context.Context, deadlineMs int) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := time.Duration(deadlineMs) * time.Millisecond
	if d <= 0 {
		d = e.cfg.DefaultDeadline
	}
	if d <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, d)
}

// planPlatform runs the plan pipeline for an explicit platform: lookup, then
// on a miss lane → solve → settle. A degraded miss answers with a heuristic
// plan instead and leaves lane → solve → settle to a background refinement.
// taken, when non-nil, is a warm session already positioned at the
// platform's exact state (the delta path hands one in); it is consumed:
// either by the solve, or by donating the session to the cache entry the
// request lands on.
func (e *Engine) planPlatform(ctx context.Context, req PlanRequest, p *platform.Platform, taken *takenSession, tc *obs.Trace) (*PlanResult, error) {
	ent, res, err := e.lookup(ctx, req, p, taken, tc)
	if ent == nil {
		return res, err
	}
	if req.Degraded {
		return e.degrade(req, p, ent, taken, tc)
	}
	release, err := e.lane(ctx, obs.SpanSolve, tc)
	var s *solved
	if err == nil {
		s, err = e.solve(ctx, obs.SpanSolve, req, p, ent.id(), taken, tc)
		release()
	}
	e.settle(ent, s, err, ent.ready)
	if err != nil {
		return nil, err
	}
	return &PlanResult{Plan: s.plan, JSON: append([]byte(nil), s.json...), WarmResolved: taken != nil && taken.warm}, nil
}

// lookup is the first stage of the pipeline. It validates the request,
// hashes the exact platform and computes the fingerprint only on a miss, then
// either serves a hit — waiting on an in-flight solve, or on a pending
// refinement, as needed — or claims a new cache entry and returns it for the
// rest of the pipeline. A nil entry means the request is answered: res or err
// is final.
func (e *Engine) lookup(ctx context.Context, req PlanRequest, p *platform.Platform, taken *takenSession, tc *obs.Trace) (*entry, *PlanResult, error) {
	if req.Heuristic != "" {
		if _, err := heuristics.ByName(req.Heuristic); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if req.Trees < 0 {
		return nil, nil, fmt.Errorf("%w: negative tree cap %d", ErrBadRequest, req.Trees)
	}
	if p.NumAliveNodes() < 2 {
		return nil, nil, ErrTooSmall
	}
	key := cacheKey{exact: exactHash(p), planParams: req.params()}
	if tc != nil {
		tc.SetIdentity(traceIdentity(key))
	}

	e.mu.Lock()
	e.stats.Requests++
	el, ok := e.byKey[key]
	var fp platform.Fingerprint
	if !ok {
		// Not a repeat. Only now is the fingerprint worth its colour
		// refinement — it says whether the platform is a renumbered twin of a
		// cached one and files the new entry for delta requests to find. It
		// is computed outside the lock, so an identical request may claim the
		// key meanwhile: look again.
		e.mu.Unlock()
		fp = p.Fingerprint()
		e.mu.Lock()
		el, ok = e.byKey[key]
	}
	if ok {
		ent := el.Value.(*entry)
		e.lru.MoveToFront(el)
		// Classify the hit while still under the lock: an entry whose ready
		// channel is not yet closed is an in-flight solve this request
		// collapses onto. The classification point is the lookup, so it is
		// deterministic for schedules that order duplicates after their
		// first-touch completed (they always see ready closed). Singleflight
		// is counted here too — at the same moment the hook fires — so the
		// stats-side and hook-side views agree even when the solve this
		// request collapsed onto later fails.
		collapsed := !entryDone(ent)
		if collapsed {
			e.stats.Singleflight++
		}
		e.hook(LookupEvent{Collapsed: collapsed})
		e.mu.Unlock()
		tc.Add(obs.Event{Kind: obs.SpanLookup, Collapsed: collapsed})
		select {
		case <-ent.ready:
		case <-ctx.Done():
			tc.Add(obs.Event{Kind: obs.SpanCancel, At: "collapsed-wait"})
			return nil, nil, e.abandonHit(ctx)
		}
		if ent.refined != nil && !req.Degraded {
			// The entry is (or was) a degraded one. Opt-in degraded requests
			// take whatever plan is current; everyone else waits for the
			// background refinement to land.
			select {
			case <-ent.refined:
			case <-ctx.Done():
				tc.Add(obs.Event{Kind: obs.SpanCancel, At: "refined-wait"})
				return nil, nil, e.abandonHit(ctx)
			}
		}
		e.mu.Lock()
		if ent.err != nil {
			// Collapsed waiters on a failed solve got no plan: they count as
			// Misses, keeping Hits+Misses == Requests on every path.
			e.stats.Misses++
			e.mu.Unlock()
			return nil, nil, ent.err
		}
		e.stats.Hits++
		e.mu.Unlock()
		ent.mu.Lock()
		// A delta request that raced a concurrent identical insert donates
		// its session to the hit entry (the session platform is exactly at
		// the entry's state — the exact keys matched) instead of dropping
		// the lineage's only warm state.
		if taken != nil && !e.cfg.DisableSessions && ent.session == nil {
			ent.session, ent.sessionP = taken.sess, taken.p
		}
		plan, planJSON := ent.plan, ent.json
		ent.mu.Unlock()
		return nil, &PlanResult{Plan: plan, JSON: append([]byte(nil), planJSON...), Cached: true, Collapsed: collapsed, Degraded: plan.Degraded}, nil
	}
	// Miss: claim the key with an unsolved entry so concurrent identical
	// requests wait on this solve instead of duplicating it. A renumbered
	// twin of a cached platform lands here too (same fpKey, different exact
	// key) and is cached independently — its IDs live in another numbering.
	ent := &entry{key: key, fp: fp, ready: make(chan struct{})}
	twin := len(e.byFP[ent.fpKey()]) > 0
	if twin {
		e.stats.TwinMisses++
	}
	if req.Degraded {
		ent.refined = make(chan struct{})
	}
	e.insertLocked(ent)
	e.stats.Misses++
	e.hook(LookupEvent{Miss: true, Twin: twin})
	e.mu.Unlock()
	tc.Add(obs.Event{Kind: obs.SpanLookup, Miss: true, Twin: twin})
	return ent, nil, nil
}

// abandonHit accounts for a hit-path wait abandoned by its context: the
// request got no plan, so it counts as a Miss (and Canceled).
func (e *Engine) abandonHit(ctx context.Context) error {
	e.mu.Lock()
	e.stats.Misses++
	e.stats.Canceled++
	e.mu.Unlock()
	return canceled(ctx)
}

// lane claims a solve lane; it is the one branch of the pipeline. A
// request-path solve (kind SpanSolve) goes through admission control
// (acquire: it may queue, shed, or give up when ctx is done), records the
// admit and queue-wait spans and fires the BeforeSolve hook. A degraded
// refinement (kind SpanRefine) blocks for a lane the plain way — no hooks,
// no shedding, no deadline: its client already has an answer.
func (e *Engine) lane(ctx context.Context, kind obs.SpanKind, tc *obs.Trace) (release func(), err error) {
	if kind == obs.SpanRefine {
		e.sem <- struct{}{}
		return e.releaseLane, nil
	}
	waitStart := time.Now()
	release, err = e.acquire(ctx)
	wait := time.Since(waitStart)
	if err != nil {
		// The admit event records only admitted-vs-shed: the lane-vs-queued
		// split (AdmitKind) is scheduling-dependent, so — like Stats.Queued —
		// it stays out of canonical trace output.
		switch {
		case errors.Is(err, ErrOverloaded):
			tc.Add(obs.Event{Kind: obs.SpanAdmit, Admitted: "shed"})
		case errors.Is(err, ErrCanceled):
			tc.Add(obs.Event{Kind: obs.SpanCancel, At: "queue"})
		}
		return nil, err
	}
	e.latMu.Lock()
	e.queueWaitNs.Record(wait.Nanoseconds())
	e.latMu.Unlock()
	tc.Add(obs.Event{Kind: obs.SpanAdmit, Admitted: "admitted"})
	if tc.Wall() {
		tc.Add(obs.Event{Kind: obs.SpanQueueWait, DurNs: wait.Nanoseconds()})
	}
	if e.cfg.Hooks != nil && e.cfg.Hooks.BeforeSolve != nil {
		e.cfg.Hooks.BeforeSolve()
	}
	return release, nil
}

// solved is a finished plan on its way into its cache entry: the plan, its
// canonical bytes, the platform it was planned on, and the session
// positioned there (nil for the degraded heuristic answer).
type solved struct {
	plan *Plan
	json []byte
	sess *steady.Session
	sp   *platform.Platform
}

// solve is the solve stage; the caller holds a solve lane. It runs the
// steady-state solver on its own clone of the platform (or on the taken
// session), records the engine counters and histograms, packs and builds the
// optional heuristic, and marshals the plan. id is the platform's identity
// as the lookup computed it. The span it records is of the given kind —
// SpanSolve on the request path, SpanRefine for a degraded refinement — and
// is otherwise the same for both.
func (e *Engine) solve(ctx context.Context, kind obs.SpanKind, req PlanRequest, p *platform.Platform, id platformID, taken *takenSession, tc *obs.Trace) (*solved, error) {
	var sess *steady.Session
	var sp *platform.Platform
	if taken != nil {
		sess, sp = taken.sess, taken.p
	} else {
		sp = p.Clone()
		sess = steady.NewSession(sp, req.Source, e.cfg.Steady)
	}
	before := sess.Stats()
	start := time.Now()
	sol, err := sess.ResolveContext(ctx)
	elapsed := time.Since(start)
	after := sess.Stats()
	if err == nil {
		e.latMu.Lock()
		e.solveNs.Record(elapsed.Nanoseconds())
		e.solvePivots.Record(int64(sol.LPIterations))
		e.solveRounds.Record(int64(sol.Rounds))
		e.solveCuts.Record(int64(sol.Cuts))
		e.latMu.Unlock()
	}
	e.mu.Lock()
	e.stats.Solves++
	if sol != nil {
		e.stats.LPPivots += int64(sol.LPIterations)
		e.stats.SepMaxFlows += int64(sol.MaxFlows)
		e.stats.SepCertified += int64(sol.Certified)
	}
	e.stats.LPWarmPivots += int64(after.WarmPivots - before.WarmPivots)
	e.stats.LPColdPivots += int64(after.ColdPivots - before.ColdPivots)
	e.stats.WarmResolves += int64(after.WarmResolves - before.WarmResolves)
	e.stats.SessionRebuilds += int64(after.Rebuilds - before.Rebuilds)
	e.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrCanceled) {
			tc.Add(obs.Event{Kind: obs.SpanCancel, At: "solve"})
		} else {
			tc.Add(obs.Event{Kind: kind, Err: err.Error()})
		}
		return nil, err
	}
	sev := obs.Event{
		Kind:       kind,
		Warm:       taken != nil && taken.warm,
		Rounds:     sol.Rounds,
		Cuts:       sol.Cuts,
		Pivots:     sol.LPIterations,
		WarmPivots: sol.WarmPivots,
		ColdPivots: sol.ColdPivots,
		ColdSolves: sol.ColdSolves,
		Flows:      sol.MaxFlows,
		Certified:  sol.Certified,
	}
	// The packing reads nothing but the solution; it runs here so the solve
	// span can say what it cost.
	var pk *steady.Packing
	var packErr error
	if req.Trees > 0 {
		pk, packErr = pack.Decompose(sp, req.Source, sol, &pack.Options{MaxTrees: req.Trees})
		if pk != nil {
			sev.PackRounds, sev.PackPivots = pk.Rounds, pk.MasterPivots
		}
	}
	if tc.Wall() {
		sev.DurNs = elapsed.Nanoseconds()
		sev.SepNs = sol.SepWallNanos
		if pk != nil {
			sev.PackNs = pk.WallNanos
		}
	}
	tc.Add(sev)
	if packErr != nil {
		return nil, fmt.Errorf("service: tree packing: %w", packErr)
	}

	plan := planHeader(req, sp, id)
	plan.Throughput = sol.Throughput
	plan.UpperBound = sol.UpperBound
	plan.EdgeRate = sol.EdgeRate
	plan.LPRounds = sol.Rounds
	plan.LPCuts = sol.Cuts
	plan.LPPivots = sol.LPIterations
	plan.LPWarmPivots = sol.WarmPivots
	plan.LPColdPivots = sol.ColdPivots
	plan.LPColdSolves = sol.ColdSolves
	if req.Heuristic != "" {
		tree, tp, err := buildHeuristic(sp, req.Source, req.Heuristic, sol.EdgeRate, model.OnePortBidirectional)
		if err != nil {
			return nil, err
		}
		plan.Heuristic = req.Heuristic
		plan.Tree = tree
		plan.HeuristicThroughput = tp
		if sol.Throughput > 0 {
			plan.Ratio = tp / sol.Throughput
		}
	}
	if pk != nil {
		plan.Packing = pk
		plan.PackedThroughput = pk.Throughput
		plan.PackedTrees = pk.NumTrees()
		if sol.Throughput > 0 {
			plan.PackedRatio = pk.Throughput / sol.Throughput
		}
	}
	planJSON, err := json.Marshal(plan)
	if err != nil {
		return nil, fmt.Errorf("service: marshal plan: %w", err)
	}
	return &solved{plan: plan, json: planJSON, sess: sess, sp: sp}, nil
}

// planHeader starts a plan with what every plan carries — the platform's
// identities and shape and the source — for the solve and the degraded
// answer to complete.
func planHeader(req PlanRequest, p *platform.Platform, id platformID) *Plan {
	return &Plan{
		Fingerprint: id.fp.String(),
		ExactKey:    hex.EncodeToString(id.exact[:]),
		Source:      req.Source,
		Nodes:       p.NumNodes(),
		Links:       p.NumLinks(),
	}
}

// settle is the last stage of the pipeline: it writes a finished plan (its
// bytes, its platform snapshot and, unless sessions are disabled, its warm
// session) into the entry, or, when the entry's first answer failed, records
// the error and removes the entry — failed and canceled solves are not
// served from the cache. A failed refinement does neither: the degraded plan
// stays. Then it closes done (ent.ready, or ent.refined for a refinement)
// and trims the cache, since a finished entry may unblock evictions deferred
// while it was in flight.
func (e *Engine) settle(ent *entry, s *solved, err error, done chan struct{}) {
	if s != nil {
		ent.mu.Lock()
		ent.plan, ent.json = s.plan, s.json
		// Without a session to keep, sp is exclusively owned and serves as
		// the snapshot directly.
		ent.plat = s.sp
		if s.sess != nil && !e.cfg.DisableSessions {
			ent.plat = s.sp.Clone()
			ent.session, ent.sessionP = s.sess, s.sp
		}
		ent.mu.Unlock()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil && done == ent.ready {
		if errors.Is(err, ErrCanceled) {
			e.stats.Canceled++
		}
		ent.err = err
		if el, ok := e.byKey[ent.key]; ok && el.Value.(*entry) == ent {
			e.removeLocked(el)
		}
		if ent.refined != nil {
			close(ent.refined)
		}
	}
	close(done)
	e.trimLocked()
}

// degrade answers a freshly claimed cold miss in degraded mode: the grow-tree
// heuristic's plan settles into the entry at once and a background
// refinement replaces it with the LP-optimal one. The heuristic is fixed —
// the request's own (honoured by the refinement) may be LP-based, which
// would pay the very solve degraded mode exists to avoid — and the answer
// never touches admission control: overloaded tail latency collapses from
// solve cost to heuristic cost.
func (e *Engine) degrade(req PlanRequest, p *platform.Platform, ent *entry, taken *takenSession, tc *obs.Trace) (*PlanResult, error) {
	plan := planHeader(req, p, ent.id())
	plan.Heuristic = heuristics.NameGrowTree
	plan.Degraded = true
	tree, tp, err := buildHeuristic(p, req.Source, plan.Heuristic, nil, model.OnePortBidirectional)
	var planJSON []byte
	if err != nil {
		err = fmt.Errorf("service: degraded plan: %w", err)
	} else {
		// Throughput is the heuristic tree's, a lower bound, until the
		// refinement lands.
		plan.Tree = tree
		plan.Throughput = tp
		plan.HeuristicThroughput = tp
		if planJSON, err = json.Marshal(plan); err != nil {
			err = fmt.Errorf("service: marshal plan: %w", err)
		}
	}
	if err != nil {
		e.settle(ent, nil, err, ent.ready)
		return nil, err
	}
	e.mu.Lock()
	e.stats.Degraded++
	e.mu.Unlock()
	tc.Add(obs.Event{Kind: obs.SpanDegraded, Heuristic: plan.Heuristic})
	e.settle(ent, &solved{plan: plan, json: planJSON, sp: p.Clone()}, nil, ent.ready)
	// The refinement solves its own snapshot: the caller keeps ownership of
	// p after we return. A delta request's taken session is engine-owned
	// and rides along instead.
	refineP := p
	if taken == nil {
		refineP = p.Clone()
	}
	e.bg.Add(1)
	go e.refine(ent, req, refineP, taken)
	return &PlanResult{Plan: plan, JSON: append([]byte(nil), planJSON...), Degraded: true}, nil
}

// refine is the background half of degraded mode: lane → solve → settle on a
// blocking lane and without a deadline, swapping the LP-optimal plan into the
// still-cached entry. On failure the degraded plan stays (still flagged
// Degraded) — the client already has its answer, so there is nobody to
// surface the error to beyond the RefineFailures counter.
func (e *Engine) refine(ent *entry, req PlanRequest, p *platform.Platform, taken *takenSession) {
	defer e.bg.Done()
	// The refinement records its own trace (outcome "refine", sharing the
	// request's identity): the client's trace finished with the degraded
	// answer before this solve even started.
	rtc := e.cfg.Tracer.Begin("")
	rtc.SetIdentity(traceIdentity(ent.key))
	ctx := context.Background()
	start := time.Now()
	release, _ := e.lane(ctx, obs.SpanRefine, rtc) // a refinement's lane blocks, it never fails
	s, err := e.solve(ctx, obs.SpanRefine, req, p, ent.id(), taken, rtc)
	release()
	e.latMu.Lock()
	e.refineNs.Record(time.Since(start).Nanoseconds())
	e.latMu.Unlock()
	outcome := obs.OutcomeRefine
	e.mu.Lock()
	if err != nil {
		e.stats.RefineFailures++
		outcome = obs.OutcomeError
	} else {
		e.stats.Refines++
	}
	e.mu.Unlock()
	e.cfg.Tracer.Finish(rtc, outcome)
	e.settle(ent, s, err, ent.refined)
}

// takenSession is a warm session handed from a base entry to the delta path.
type takenSession struct {
	sess *steady.Session
	p    *platform.Platform // the session's live platform, already mutated
	warm bool
}

// planFromBase serves a near-duplicate request: the cached platform named by
// the base fingerprint (and, when twins share it, the BaseExact key),
// mutated by the request's deltas.
func (e *Engine) planFromBase(ctx context.Context, req PlanRequest, tc *obs.Trace) (*PlanResult, error) {
	fp, err := platform.ParseFingerprint(req.Base)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var wantExact []byte
	if req.BaseExact != "" {
		wantExact, err = hex.DecodeString(req.BaseExact)
		if err != nil || len(wantExact) != 32 {
			return nil, fmt.Errorf("%w: invalid baseExact %q", ErrBadRequest, req.BaseExact)
		}
	}

	// Resolve the base entry. Deltas address links and nodes by ID, so when
	// several renumbered twins share the fingerprint the request must pin
	// one with BaseExact — guessing would mutate the wrong platform.
	e.mu.Lock()
	var el *list.Element
	cands := e.byFP[fpKey{fp: fp, planParams: req.params()}]
	switch {
	case wantExact != nil:
		for _, c := range cands {
			if ent := c.Value.(*entry); bytes.Equal(ent.key.exact[:], wantExact) {
				el = c
				break
			}
		}
	case len(cands) == 1:
		el = cands[0]
	case len(cands) > 1:
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s has %d cached twins", ErrAmbiguousBase, req.Base, len(cands))
	}
	if el == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownBase, req.Base)
	}
	base := el.Value.(*entry)
	e.lru.MoveToFront(el)
	e.stats.DeltaPlans++
	e.mu.Unlock()
	select {
	case <-base.ready:
	case <-ctx.Done():
		// Not a routed lookup (Requests was not incremented for the base
		// entry), so no Miss/Hit accounting here — just the cancellation.
		e.mu.Lock()
		e.stats.Canceled++
		e.mu.Unlock()
		tc.Add(obs.Event{Kind: obs.SpanCancel, At: "base-wait"})
		return nil, canceled(ctx)
	}
	if base.err != nil {
		return nil, base.err
	}

	// Take the base entry's warm session when it is still home; otherwise
	// re-derive a fresh one from the immutable snapshot. If the mutated
	// platform turns out to be cached already, planPlatform's hit path
	// donates the session to that entry instead of losing it.
	base.mu.Lock()
	taken := &takenSession{}
	if base.session != nil {
		taken.sess, taken.p = base.session, base.sessionP
		taken.warm = true
		base.session, base.sessionP = nil, nil
	} else {
		taken.p = base.plat.Clone()
		taken.sess = steady.NewSession(taken.p, req.Source, e.cfg.Steady)
	}
	base.mu.Unlock()
	for _, d := range req.Deltas {
		if _, err := taken.p.ApplyDelta(d); err != nil {
			// The session platform may be mid-sequence; drop it rather than
			// returning it home in an undefined state.
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	tc.Add(obs.Event{Kind: obs.SpanBase, Warm: taken.warm})
	mutReq := req
	mutReq.Base, mutReq.BaseExact, mutReq.Deltas = "", "", nil
	return e.planPlatform(ctx, mutReq, taken.p, taken, tc)
}

// PlanEach plans a batch of independent requests across the worker pool with
// parallel.MapStream semantics: results come back in index order and are
// deterministic for any worker count. Per-request failures are reported in
// the outcome, not as a batch error.
func (e *Engine) PlanEach(reqs []PlanRequest, workers int) []PlanOutcome {
	return e.PlanEachContext(context.Background(), reqs, workers)
}

// PlanEachContext is PlanEach under a shared context: each request is bounded
// by the context (plus its own DeadlineMs / the engine default), and
// per-request cancellations surface in the outcome like any other error.
func (e *Engine) PlanEachContext(ctx context.Context, reqs []PlanRequest, workers int) []PlanOutcome {
	return parallel.Map(len(reqs), workers, func(i int) PlanOutcome {
		res, err := e.PlanContext(ctx, reqs[i])
		out := PlanOutcome{Result: res}
		if err != nil {
			out.Error = err.Error()
		}
		return out
	})
}

// PlanOutcome is one result of PlanEach.
type PlanOutcome struct {
	Result *PlanResult
	Error  string
}

// EvaluateRequest asks for the relative performance of tree heuristics on a
// platform against its steady-state optimum.
type EvaluateRequest struct {
	Platform *platform.Platform `json:"platform"`
	Source   int                `json:"source"`
	// Heuristics to evaluate (empty = every registered heuristic).
	Heuristics []string `json:"heuristics,omitempty"`
}

// HeuristicResult is the outcome of one heuristic in an evaluation.
type HeuristicResult struct {
	Heuristic  string  `json:"heuristic"`
	Throughput float64 `json:"throughput"`
	Ratio      float64 `json:"ratio"`
	Error      string  `json:"error,omitempty"`
}

// Evaluation is the engine's answer to an evaluate request.
type Evaluation struct {
	Fingerprint string            `json:"fingerprint"`
	Optimal     float64           `json:"optimal"`
	Cached      bool              `json:"cached"`
	Results     []HeuristicResult `json:"results"`
}

// Evaluate plans the platform (through the cache) and evaluates every
// requested heuristic against the optimum.
func (e *Engine) Evaluate(req EvaluateRequest) (*Evaluation, error) {
	return e.EvaluateContext(context.Background(), req)
}

// EvaluateContext is Evaluate with cooperative cancellation: the context
// (plus the engine's DefaultDeadline) bounds the underlying plan solve.
func (e *Engine) EvaluateContext(ctx context.Context, req EvaluateRequest) (*Evaluation, error) {
	if req.Platform == nil {
		return nil, ErrNoPlatform
	}
	planReq := PlanRequest{Platform: req.Platform, Source: req.Source}
	res, err := e.PlanContext(ctx, planReq)
	if err != nil {
		return nil, err
	}
	names := req.Heuristics
	if len(names) == 0 {
		names = heuristics.Names()
	}
	ev := &Evaluation{
		Fingerprint: res.Plan.Fingerprint,
		Optimal:     res.Plan.Throughput,
		Cached:      res.Cached,
		Results:     make([]HeuristicResult, len(names)),
	}
	for i, name := range names {
		hr := HeuristicResult{Heuristic: name}
		tp, err := EvaluateHeuristic(req.Platform, req.Source, name, res.Plan.EdgeRate, model.OnePortBidirectional)
		if err != nil {
			hr.Error = err.Error()
		} else {
			hr.Throughput = tp
			if ev.Optimal > 0 {
				hr.Ratio = tp / ev.Optimal
			}
		}
		ev.Results[i] = hr
	}
	return ev, nil
}

// EvaluateHeuristic builds the named heuristic on the platform (sharing
// precomputed LP edge rates) and returns its steady-state throughput under
// the port model. Routing-producing heuristics (the binomial tree) are
// evaluated with link and node contention. The sweep engine and the service
// share this helper.
func EvaluateHeuristic(p *platform.Platform, source int, name string, rates []float64, m model.PortModel) (float64, error) {
	_, tp, err := buildHeuristic(p, source, name, rates, m)
	return tp, err
}

// buildHeuristic builds the named heuristic and returns its tree (nil for
// routing heuristics) and throughput.
func buildHeuristic(p *platform.Platform, source int, name string, rates []float64, m model.PortModel) (*platform.Tree, float64, error) {
	builder, err := heuristics.ByNameWithRates(name, rates)
	if err != nil {
		return nil, 0, err
	}
	if rb, ok := builder.(heuristics.RoutingBuilder); ok {
		routing, err := rb.BuildRouting(p, source)
		if err != nil {
			return nil, 0, err
		}
		return nil, throughput.RoutingThroughput(p, routing, m), nil
	}
	tree, err := builder.Build(p, source)
	if err != nil {
		return nil, 0, err
	}
	return tree, throughput.TreeThroughput(p, tree, m), nil
}

// ChurnRequest replays a deterministic churn trace against a platform,
// comparing the keep/repair/rebuild policies against the re-solved optimum.
type ChurnRequest struct {
	Platform *platform.Platform `json:"platform"`
	Source   int                `json:"source"`
	// Profile names the churn profile (empty = default); Events is the trace
	// length (0 = dynamic default); Seed drives the trace generator.
	Profile string `json:"profile,omitempty"`
	Events  int    `json:"events,omitempty"`
	Seed    int64  `json:"seed"`
	// Heuristic drives the initial build and the rebuild policy.
	Heuristic string `json:"heuristic,omitempty"`
	// ColdResolve re-solves the optimum from scratch at every event.
	ColdResolve bool `json:"coldResolve,omitempty"`
}

// ChurnReplay is the engine's answer to a churn request.
type ChurnReplay struct {
	Fingerprint string          `json:"fingerprint"`
	Trace       *dynamic.Trace  `json:"trace"`
	Report      *dynamic.Report `json:"report"`
}

// Churn generates the request's churn trace and replays it against a private
// clone of the platform, bounded by the worker pool.
func (e *Engine) Churn(req ChurnRequest) (*ChurnReplay, error) {
	return e.ChurnContext(context.Background(), req)
}

// ChurnContext is Churn under a context: admission control applies exactly
// as for cold-miss plan solves (a saturated engine sheds churn replays with
// an *OverloadedError, a canceled context abandons the admission wait). The
// replay itself runs to completion once admitted — its many small re-solves
// are individually far below any sensible deadline.
func (e *Engine) ChurnContext(ctx context.Context, req ChurnRequest) (*ChurnReplay, error) {
	if req.Platform == nil {
		return nil, ErrNoPlatform
	}
	prof, err := dynamic.ProfileByName(req.Profile)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	events := req.Events
	if events <= 0 {
		events = 20
	}
	ctx, cancel := e.requestContext(ctx, 0)
	if cancel != nil {
		defer cancel()
	}
	release, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	trace, err := dynamic.GenerateTrace(req.Platform, req.Source, prof, events, req.Seed)
	if err != nil {
		return nil, err
	}
	cfg := dynamic.Config{Heuristic: req.Heuristic, ColdResolve: req.ColdResolve}
	report, err := dynamic.Run(req.Platform, req.Source, trace, cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.stats.ChurnRuns++
	e.mu.Unlock()
	return &ChurnReplay{Fingerprint: req.Platform.Fingerprint().String(), Trace: trace, Report: report}, nil
}
