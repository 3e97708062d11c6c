// Package service is the concurrent broadcast-planning engine behind the
// bcast-serve CLI: a long-running façade over the steady-state solver and the
// tree heuristics that reuses solved work across requests.
//
// The engine keeps an LRU cache of solved plans — and of warm steady.Session
// handles — looked up by exact hash: the SHA-256 of the incoming platform's
// canonical encoding (platform.CanonicalEncoding, one linear pass) plus the
// request parameters that change the answer (source, heuristic, tree cap —
// there is one master LP solver, lp.Revised, configured once per engine by
// Config.Steady, so a platform has one entry per such tuple). The
// permutation-invariant fingerprint (platform.Fingerprint) is computed on a
// miss only, outside the engine lock, for twin detection — a renumbered copy
// of a cached platform shares its fingerprint, is counted as a twin miss and
// solved in its own numbering — and for delta-base routing, delta requests
// naming their base by fingerprint. So:
//
//   - A repeated identical request is answered from the cache with the
//     byte-identical marshaled plan, without touching the solver or running
//     colour refinement. Over HTTP, /v1/plan reads the body once and decodes
//     the platform out of it in a single pass (platform.DecodeMember).
//
//   - Concurrent identical requests are collapsed into one solve
//     (singleflight): the first request computes, the others wait on it and
//     count as cache hits.
//
//   - A near-duplicate request — a platform one churn delta away from a
//     cached one, addressed by base fingerprint plus a delta list — reuses
//     the cached entry's warm session: tightening deltas re-optimize the
//     previous optimal basis with a few dual simplex pivots instead of
//     cold-solving the new platform from scratch.
//
// Independent requests are sharded across a bounded worker pool; PlanEach
// fans a batch out with parallel.MapStream semantics (results in index order,
// deterministic for any worker count). The scenario sweep engine routes its
// per-unit solves through an Engine, so sweeps get cross-unit cache hits for
// free.
//
// # Overload contract
//
// Past capacity the engine answers or refuses — never queues without bound:
//
//   - Deadlines and cancellation: PlanContext (and friends) thread a context
//     into the simplex pivot loop, which polls it every 64 pivots. An expired
//     or canceled solve returns ErrCanceled, removes its claimed cache entry
//     (waiters see the error, the next request re-solves cold), and never
//     leaves a mid-pivot basis to be reused warm.
//
//   - Admission control: solves run on Config.Workers lanes plus a bounded
//     wait queue of Config.QueueDepth tokens (0 = unbounded). A cold miss
//     that finds lanes and queue full is shed immediately with an
//     *OverloadedError carrying a Retry-After hint derived from the observed
//     solve-latency distribution. Hits and collapsed singleflight waiters
//     bypass admission entirely, so the hot set stays flat-latency under
//     saturation.
//
//   - Degraded mode: a PlanRequest with Degraded set accepts an immediate
//     heuristic tree on a cold miss (Plan.Degraded is set) while a background
//     worker refines the cache entry to the LP optimum; Drain waits for
//     in-flight refinements.
package service
