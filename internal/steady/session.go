package steady

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/platform"
)

// Session carries the cutting-plane state of one (platform, source) pair
// across platform mutations: the warm-started master LP (lp.Revised) and an
// accumulated pool of separated cuts, stored as node-partition sides so they
// can be re-materialized after the link set changes. The platform is shared
// with the caller, who mutates it through platform.ApplyDelta between Resolve
// calls; the session diffs the mutation journal to decide how much of the
// previous master survives:
//
//   - Tightening deltas (link degradations, link failures) only shrink the
//     LP's feasible region, so the master is reused: refreshed one-port
//     occupation rows and forced-zero rows for failed links are appended and
//     priced into the previous optimal basis with dual simplex pivots, and
//     every existing cut row remains valid.
//
//   - Loosening deltas (link speed-ups, link revivals, node crashes and
//     rejoins) invalidate rows that cannot be retracted from the master, so
//     it is rebuilt — but seeded with the accumulated cut pool
//     (filtered to partitions that still separate an alive destination),
//     which typically lets the cutting-plane loop converge in one or two
//     rounds instead of re-separating every cut from scratch. (A node crash
//     is geometrically tightening too, but it removes destinations: a pooled
//     partition whose far side holds only dead nodes would force TP to zero,
//     so crashes must take the rebuild path where such cuts are filtered
//     out.)
//
// Certify checks either reuse: the final master's port prices bound the
// optimum of the current state whatever rows the master accumulated.
type Session struct {
	p      *platform.Platform
	source int
	opts   *Options

	// Master LP state. problem always holds the complete row set of the
	// current master; rev prices appended rows into the previous basis.
	problem *lp.Problem
	rev     *lp.Revised
	seen    map[string]struct{} // packed link sets (packCut) of the master's cut rows
	cutSeq  int                 // monotone row counter driving the anti-degeneracy RHS perturbation
	occ     []occRow            // the master's occupation rows, for Solution.PortDual

	// Cut pool: source-side node sets of every cut ever separated, in
	// separation order, each stored once as its packed signature (packSide).
	pool     []string
	poolKeys map[string]struct{}

	// sep is the separation state reused by every round of every Resolve.
	sep *separator

	journalLen int
	stats      SessionStats
}

// SessionStats counts the work done by a session across Resolve calls.
type SessionStats struct {
	// Resolves is the number of Resolve calls.
	Resolves int
	// WarmResolves counts resolves that reused the previous master by
	// appending rows; Rebuilds counts resolves that rebuilt it (including
	// the first).
	WarmResolves int
	Rebuilds     int
	// Rounds is the cumulative number of cutting-plane iterations.
	Rounds int
	// WarmPivots and ColdPivots split the cumulative simplex pivots between
	// warm-started dual-simplex re-solves and cold solves from the slack
	// basis; ColdSolves counts the master solves that ran cold.
	WarmPivots int
	ColdPivots int
	ColdSolves int
	// PoolCuts is the current size of the cut pool; PoolReused is the
	// cumulative number of pooled cuts re-materialized into rebuilt masters.
	PoolCuts   int
	PoolReused int
}

// NewSession returns a session over the platform. Nothing is solved until
// Resolve is called; the platform may already carry mutations.
func NewSession(p *platform.Platform, source int, opts *Options) *Session {
	return &Session{p: p, source: source, opts: opts, poolKeys: make(map[string]struct{})}
}

// Stats returns the cumulative session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Resolve computes the optimal steady-state MTP throughput of the
// platform's current live state (alive nodes, live links, current costs).
// The first call solves from scratch; later calls reuse the master LP and
// cut pool as described on Session. Dead links report a zero edge rate and
// dead nodes are neither destinations nor relays.
func (s *Session) Resolve() (*Solution, error) {
	return s.ResolveContext(context.Background())
}

// ResolveContext is Resolve with cooperative cancellation: the context is
// threaded into every master LP solve and checked between cutting-plane
// rounds. A canceled resolve returns an error wrapping lp.ErrCanceled and
// leaves the session consistent but cold — the partially pivoted master is
// dropped (never reused as a warm basis) while the cut pool survives, so the
// next Resolve simply rebuilds from the pool exactly as after a loosening
// mutation. A nil ctx is treated as context.Background().
func (s *Session) ResolveContext(ctx context.Context) (*Solution, error) {
	s.stats.Resolves++
	p := s.p
	if err := p.ValidateLive(s.source); err != nil {
		return nil, err
	}
	deltas := p.JournalSince(s.journalLen)
	s.journalLen = p.JournalLen()
	if p.NumAliveNodes() == 1 {
		// A lone alive source broadcasts at unbounded rate; drop the master
		// so a later rejoin rebuilds from the pool.
		s.dropMaster()
		return &Solution{Throughput: math.Inf(1), UpperBound: math.Inf(1), EdgeRate: make([]float64, p.NumLinks())}, nil
	}

	s.refreshSeparator()
	warm := s.rev != nil
	for _, d := range deltas {
		if !d.Tightening() {
			warm = false
			break
		}
	}
	if warm {
		sol, err := s.warmResolve(ctx, deltas)
		if err == nil {
			s.stats.WarmResolves++
			return sol, nil
		}
		if errors.Is(err, lp.ErrCanceled) {
			// The caller's deadline expired mid-solve: do NOT fall through to
			// the rebuild fallback — a full cold re-solve on an expired budget
			// defeats the point of canceling. runLoop already marked the
			// session cold.
			return nil, err
		}
		// The warm master could not be re-solved (iteration limit, numerical
		// trouble): rebuild once from the pool instead of failing.
	}
	return s.rebuild(ctx)
}

// warmResolve appends the rows induced by tightening deltas to the current
// master and re-runs the cutting-plane loop on the warm handle.
func (s *Session) warmResolve(ctx context.Context, deltas []platform.Delta) (*Solution, error) {
	p := s.p
	touched := make(map[int]bool) // nodes whose occupation rows must be refreshed
	for _, d := range deltas {
		switch d.Kind {
		case platform.DeltaScaleLink:
			if p.LinkLive(d.Link) {
				l := p.Link(d.Link)
				touched[l.From] = true
				touched[l.To] = true
			}
		case platform.DeltaLinkDown:
			// Force the failed link's rate to zero. Every other row of the
			// master (older occupation rows included) stays valid.
			s.problem.AddSparseConstraint([]lp.Term{{Var: d.Link, Coeff: 1}}, lp.LE, 0)
		}
	}
	// Refresh the one-port occupation rows of the endpoints of degraded
	// links. The old rows had pointwise smaller coefficients, so they remain
	// valid (dominated) and only the appended rows bind.
	for u := 0; u < p.NumNodes(); u++ {
		if !touched[u] || !p.NodeAlive(u) {
			continue
		}
		s.occ = addOccupationRows(s.problem, s.occ, p, u, 0)
	}
	return s.runLoop(ctx)
}

// rebuild constructs a fresh master over the platform's current live state
// and runs the cutting-plane loop on it.
func (s *Session) rebuild(ctx context.Context) (*Solution, error) {
	s.stats.Rebuilds++
	s.buildProblem()
	s.rev = lp.NewRevised(s.problem, s.opts.lpOptions())
	return s.runLoop(ctx)
}

// dropMaster leaves the session without a master, so the next Resolve
// rebuilds one; the cut pool survives and seeds that rebuild.
func (s *Session) dropMaster() {
	s.rev, s.problem = nil, nil
}

// buildProblem writes the master problem of the platform's current live
// state: the one-port occupation rows, the initial cuts and the still-valid
// part of the cut pool.
func (s *Session) buildProblem() {
	p := s.p
	e := p.NumLinks()
	tpVar := e
	s.problem = lp.NewProblem(e + 1)
	s.problem.SetObjectiveCoeff(tpVar, 1)
	s.seen = make(map[string]struct{})
	// The RHS perturbation restarts with the fresh master so that its total
	// magnitude stays proportional to the rows actually present, not to the
	// session's lifetime.
	s.cutSeq = 0
	s.occ = s.occ[:0]
	for u := 0; u < p.NumNodes(); u++ {
		if p.NodeAlive(u) {
			s.occ = addOccupationRows(s.problem, s.occ, p, u, 0)
		}
	}

	// Initial cuts: the live out-cut of the source and the live in-cut of
	// every alive destination; they bound TP so the first master is not
	// unbounded. Their partitions enter the pool like separated cuts.
	n := p.NumNodes()
	side := s.sep.side
	for u := range side {
		side[u] = false
	}
	side[s.source] = true
	s.addCut(s.crossingLiveLinks(side), side)
	for u := range side {
		side[u] = true
	}
	for w := 0; w < n; w++ {
		if w == s.source || !p.NodeAlive(w) {
			continue
		}
		side[w] = false
		s.addCut(s.crossingLiveLinks(side), side)
		side[w] = true
	}

	// Re-materialize the pooled partitions that still separate at least one
	// alive destination from the source.
	for _, packed := range s.pool {
		unpackSide(packed, side)
		valid := false
		for w := 0; w < n; w++ {
			if !side[w] && p.NodeAlive(w) {
				valid = true
				break
			}
		}
		if !valid {
			continue
		}
		if s.appendCutRow(s.crossingLiveLinks(side)) {
			s.stats.PoolReused++
		}
	}
}

// separator is the session-owned state of cut separation: two residual
// networks over the platform's links (edge IDs coincide with link IDs), one
// holding the chained flow and one for the destinations the chain skips, and
// the buffers one separation step reuses, so that a sweep over the
// destinations allocates only for the cuts it actually adds.
type separator struct {
	chainNet *maxflow.Network // the chained flow (see separate)
	freshNet *maxflow.Network // one bounded flow per destination the chain skips
	from, to []int            // link endpoints (the link set of a platform is fixed)
	live     []bool           // link usable in the state being resolved
	side     []bool           // partition scratch: min-cut sides, initial and pooled cuts
	links    []int            // crossingLiveLinks result
	key      []byte           // packCut / packSide scratch
	terms    []lp.Term

	// violated marks the destinations below the threshold in the previous
	// round of this Resolve; it is cleared at the start of each.
	violated []bool
}

// refreshSeparator builds the separator on first use and re-reads link
// liveness, which only changes between Resolve calls.
func (s *Session) refreshSeparator() {
	p := s.p
	n, e := p.NumNodes(), p.NumLinks()
	if s.sep == nil {
		sep := &separator{
			chainNet: maxflow.New(n),
			freshNet: maxflow.New(n),
			from:     make([]int, e),
			to:       make([]int, e),
			live:     make([]bool, e),
			side:     make([]bool, n),
			violated: make([]bool, n),
		}
		for id := 0; id < e; id++ {
			l := p.Link(id)
			sep.from[id], sep.to[id] = l.From, l.To
			sep.chainNet.AddEdge(l.From, l.To, 0)
			sep.freshNet.AddEdge(l.From, l.To, 0)
		}
		s.sep = sep
	}
	for id := range s.sep.live {
		s.sep.live[id] = p.LinkLive(id)
	}
}

// crossingLiveLinks returns the live links crossing the partition from the
// source side to the far side, in link-ID order. The slice is scratch: it is
// overwritten by the next call.
func (s *Session) crossingLiveLinks(side []bool) []int {
	sep := s.sep
	ids := sep.links[:0]
	for id, live := range sep.live {
		if live && side[sep.from[id]] && !side[sep.to[id]] {
			ids = append(ids, id)
		}
	}
	sep.links = ids
	return ids
}

// cutPerturbation is the anti-degeneracy right-hand-side perturbation of the
// cut rows: with dozens of cuts sharing an exact zero RHS the master becomes
// massively degenerate and the simplex stalls; a distinct tiny positive RHS
// per row (standard trick) changes the optimum by less than 1e-6, far below
// the accuracy at which relative performances are reported.
const cutPerturbation = 1e-9

// appendCutRow appends the master row TP - Σ_{e in cut} n_e <= ε for the
// given live edge set (link IDs ascending), unless an identical row is
// already present. It reports whether a row was added.
func (s *Session) appendCutRow(cutLinks []int) bool {
	if len(cutLinks) == 0 {
		return false
	}
	sep := s.sep
	sep.key = packCut(sep.key[:0], cutLinks)
	if _, dup := s.seen[string(sep.key)]; dup {
		return false
	}
	s.seen[string(sep.key)] = struct{}{}
	s.cutSeq++
	tpVar := s.p.NumLinks()
	terms := append(sep.terms[:0], lp.Term{Var: tpVar, Coeff: 1})
	for _, id := range cutLinks {
		terms = append(terms, lp.Term{Var: id, Coeff: -1})
	}
	sep.terms = terms
	s.problem.AddSparseConstraint(terms, lp.LE, cutPerturbation*float64(s.cutSeq))
	return true
}

// addCut appends a cut row for the live edge set and records its partition
// in the pool for future rebuilds. It reports whether a new row was added.
// Neither argument is retained.
func (s *Session) addCut(cutLinks []int, side []bool) bool {
	sep := s.sep
	sep.key = packSide(sep.key[:0], side)
	if _, pooled := s.poolKeys[string(sep.key)]; !pooled {
		packed := string(sep.key)
		s.poolKeys[packed] = struct{}{}
		s.pool = append(s.pool, packed)
	}
	return s.appendCutRow(cutLinks)
}

// packCut appends the canonical signature of a cut — its link IDs, which the
// callers produce in ascending order — as the first ID followed by the gaps,
// each a uvarint. The encoding is injective on ID sequences, so two cuts
// share a signature exactly when they are the same link set.
func packCut(buf []byte, links []int) []byte {
	prev := 0
	for _, id := range links {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// packSide appends the canonical signature of a partition: one bit per
// node, set on the source side.
func packSide(buf []byte, side []bool) []byte {
	for i := 0; i < len(side); i += 8 {
		var b byte
		for j, in := range side[i:min(i+8, len(side))] {
			if in {
				b |= 1 << j
			}
		}
		buf = append(buf, b)
	}
	return buf
}

// unpackSide expands a packSide signature into side.
func unpackSide(packed string, side []bool) {
	for u := range side {
		side[u] = packed[u>>3]>>(u&7)&1 != 0
	}
}

// runLoop runs the cutting-plane loop on the session's current problem: solve
// the master, separate violated cuts (separate: one chained flow certifies
// the destinations that are not violated, a fresh max-flow finds the cuts
// of the others), append them, repeat until no cut is violated or the
// upper/lower-bound gap closes. The returned Solution reports the pivots and
// master solves of this Resolve only, and the final master's port prices.
func (s *Session) runLoop(ctx context.Context) (*Solution, error) {
	p, opts, rev := s.p, s.opts, s.rev
	e := p.NumLinks()
	tpVar := e
	sep := s.sep
	// No separation state crosses a Resolve: the first round chains over
	// every destination.
	clear(sep.violated)

	sol := &Solution{EdgeRate: make([]float64, e)}
	tol := opts.tolerance()
	before := rev.Stats()
	solveMaster := func() (*lp.Solution, error) {
		start := time.Now()
		defer func() { sol.LPWallNanos += time.Since(start).Nanoseconds() }()
		return rev.SolveContext(ctx)
	}
	// The counters settle on every exit, the error ones included.
	defer func() {
		st := rev.Stats()
		sol.WarmPivots = st.WarmPivots - before.WarmPivots
		sol.ColdPivots = st.ColdPivots - before.ColdPivots
		sol.ColdSolves = st.ColdSolves - before.ColdSolves
		s.stats.Rounds += sol.Rounds
		s.stats.WarmPivots += sol.WarmPivots
		s.stats.ColdPivots += sol.ColdPivots
		s.stats.ColdSolves += sol.ColdSolves
		s.stats.PoolCuts = len(s.pool)
	}()

	for round := 1; round <= opts.maxRounds(); round++ {
		if ctx != nil && ctx.Err() != nil {
			// A canceled resolve leaves the session cold: the partially
			// pivoted master must never seed a warm basis.
			s.dropMaster()
			return nil, fmt.Errorf("steady: resolve canceled: %w: %v", lp.ErrCanceled, ctx.Err())
		}
		sol.Rounds = round
		lpSol, err := solveMaster()
		if err != nil {
			if errors.Is(err, lp.ErrCanceled) {
				// Wrap with %w so callers can still match lp.ErrCanceled;
				// deliberately NOT ErrLPFailed — nothing failed, the caller's
				// deadline expired.
				s.dropMaster()
				return nil, fmt.Errorf("steady: resolve canceled: %w", err)
			}
			return nil, fmt.Errorf("%w: %v", ErrLPFailed, err)
		}
		switch {
		case lpSol.Status == lp.Optimal:
			// Normal case.
		case lpSol.Status == lp.IterationLimit && lpSol.Feasible:
			// The simplex ran out of pivots on a degenerate master but still
			// holds a primal feasible point, so the edge rates are usable for
			// cut separation. Keep going — but its objective value is NOT an
			// upper bound on the optimum, so both exits below refuse to
			// terminate on such a round (the next one re-solves with a fresh
			// budget; a master that never reaches optimality ends in
			// ErrNoConvergence, not a silently under-reported throughput).
		case lpSol.Status == lp.IterationLimit:
			// The limit hit before any feasible basis existed (a phase-1
			// limit, or an aborted warm re-solve). X is the all-zero vector:
			// treating it as a solution would make every max-flow zero and
			// silently report "throughput 0, converged".
			return nil, fmt.Errorf("%w: simplex iteration limit in phase %d left no feasible master solution", ErrLPFailed, lpSol.Phase)
		default:
			return nil, fmt.Errorf("%w: status %v", ErrLPFailed, lpSol.Status)
		}
		sol.LPIterations += lpSol.Iterations
		tp := lpSol.X[tpVar]
		copy(sol.EdgeRate, lpSol.X[:e])
		for id, live := range sep.live {
			if !live {
				sol.EdgeRate[id] = 0
			}
		}
		sol.Throughput = tp
		sol.UpperBound = tp

		// Separate on the current edge rates; dead links carry nothing. The
		// smallest destination flow is the throughput the rates actually
		// support, a feasible lower bound on the optimum, while the master
		// value tp is an upper bound; the gap exit reads it only when some
		// destination is violated, and then it is one of the exact flows.
		sepStart := time.Now()
		for id, rate := range sol.EdgeRate {
			sep.chainNet.SetCapacity(id, rate)
			sep.freshNet.SetCapacity(id, rate)
		}
		threshold := tp - tol*math.Max(1, tp)
		supported, violated := s.separate(threshold, sol)
		sol.Cuts = len(s.seen)
		sol.SepWallNanos += time.Since(sepStart).Nanoseconds()
		if violated == 0 {
			if lpSol.Status != lp.Optimal {
				// No cut separates the current point, but the master stopped
				// at its iteration limit, so tp is just some feasible value —
				// possibly far below the optimum (in the degenerate case, 0).
				// Refuse to report it as the converged throughput.
				return nil, fmt.Errorf("%w: master LP hit its iteration limit before optimality; throughput %v cannot be certified", ErrLPFailed, tp)
			}
			sol.PortDual = portDual(p.NumNodes(), rev.Duals(), s.occ)
			return sol, nil
		}
		if lpSol.Status == lp.Optimal && tp-supported <= opts.gapTolerance()*math.Max(1, tp) {
			// The current rates already support a throughput within the gap
			// tolerance of the upper bound; report the achievable value. The
			// exit requires an Optimal master: on an iteration-limited round
			// tp is just some feasible value, so a small (or negative) gap
			// would certify nothing.
			sol.Throughput = supported
			sol.PortDual = portDual(p.NumNodes(), rev.Duals(), s.occ)
			return sol, nil
		}
	}
	return sol, fmt.Errorf("%w after %d rounds", ErrNoConvergence, sol.Rounds)
}

// chainMargin is the relative margin by which the chained flow of separate
// over-delivers: it certifies a destination only when a flow of
// threshold·(1 + chainMargin) reaches it. The margin is 100x below the 1e-7
// separation tolerance, so a destination the master left feasible by the
// tolerance still chains, and far above the round-off of the Dinic sums
// (1e-16 relative per addition) and the at most 1e-13 per hop a chain gives
// up to Reroute's round-off allowance, so a certified destination's own
// bounded max-flow is never a sliver short of the threshold.
const chainMargin = 1e-9

// separate runs one separation step at the edge rates loaded into both
// separation networks and the violation threshold. It appends both
// canonical minimum cuts of every violated destination to the master (they
// usually differ, and two rows per violated destination roughly halve the
// master re-solves on hierarchical platforms), destination by destination in
// index order, and returns the smallest destination flow — a destination at
// or above the threshold counting as the threshold itself, the value
// MaxFlowBounded reports for it — and the number of rows added. It leaves in
// sep.violated which destinations were violated, and counts in sol the
// destinations a fresh max-flow decided and those the chained flow
// certified.
//
// One pass over the alive destinations, in index order, over two networks:
//
//   - A destination violated in the previous round gets the per-destination
//     step on freshNet: a Reset and a MaxFlowBounded(source, w, threshold),
//     whose minimum cuts, if it falls short, are the destination's cuts. It
//     is most likely violated again, and keeping it out of the chain keeps
//     the chain going.
//   - Every other destination w is offered to the chain on chainNet, which
//     keeps one flow and moves its sink (Hao & Orlin's idea):
//     Reroute(prev, w, chain), chain being threshold·(1 + chainMargin) and
//     prev the last certified destination. If f is a source→prev flow of
//     value F and g a prev→w flow of value F in the residual network of f,
//     then f + g is a source→w flow of value F: a success certifies w,
//     since by max-flow/min-cut every source–w cut then has capacity at
//     least F > threshold.
//   - Where there is no prev, or Reroute refuses w, the chain restarts at w:
//     a Reset of chainNet and a MaxFlowBounded(source, w, chain). If it
//     reaches chain, w is certified and the chain goes on from it (the flow
//     may overshoot chain by part of its last augmentation; the overshoot
//     stays at w as a second sink, and a flow with extra sinks still pushes
//     at least the delivered value across every cut that separates the
//     source from the current sink). If it falls short, it ran to
//     exhaustion by the very augmentations MaxFlowBounded(source, w,
//     threshold) performs while below the threshold, so its value decides w
//     and its minimum cuts are w's.
//
// A certified destination's own bounded flow would have reached the
// threshold, and every other destination's flow is computed exactly as a
// bounded max-flow per destination computes it, so the violated
// destinations, their cuts (in the same order) and the returned value are
// exactly those of the per-destination sweep, and the cutting-plane loop
// above is unchanged by the chain bit for bit.
func (s *Session) separate(threshold float64, sol *Solution) (supported float64, added int) {
	p, source, sep := s.p, s.source, s.sep
	n := p.NumNodes()
	chain := threshold * (1 + chainMargin)
	supported = math.Inf(1)
	prev := -1
	for w := 0; w < n; w++ {
		if w == source || !p.NodeAlive(w) {
			continue
		}
		flow, nw := threshold, sep.freshNet
		switch {
		case sep.violated[w]:
			nw.Reset()
			flow = nw.MaxFlowBounded(source, w, threshold)
			sol.MaxFlows++
		case prev >= 0 && sep.chainNet.Reroute(prev, w, chain):
			sol.Certified++
			prev = w
		default:
			nw = sep.chainNet
			nw.Reset()
			if f := nw.MaxFlowBounded(source, w, chain); f >= chain {
				sol.Certified++
				prev = w
			} else {
				sol.MaxFlows++
				prev = -1
				if !(f >= threshold) {
					flow = f
				}
			}
		}
		if flow < supported {
			supported = flow
		}
		sep.violated[w] = !(flow >= threshold)
		if !sep.violated[w] {
			continue
		}
		side := nw.MinCutSourceSideInto(source, sep.side)
		if s.addCut(s.crossingLiveLinks(side), side) {
			added++
		}
		side = nw.MinCutSinkSideInto(w, sep.side)
		if s.addCut(s.crossingLiveLinks(side), side) {
			added++
		}
	}
	return supported, added
}
