package steady

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/platform"
)

// Solution is the optimal steady-state broadcast solution.
type Solution struct {
	// Throughput is the optimal number of message slices the source can
	// broadcast per time unit using multiple trees (the value TP of LP (2)).
	Throughput float64
	// EdgeRate[linkID] is the number of slices per time unit that cross the
	// link in the optimal solution (n(u,v) in the paper). The LP-based
	// heuristics use these as edge weights.
	EdgeRate []float64
	// Rounds is the number of cutting-plane iterations (1 for SolveDirect).
	Rounds int
	// Cuts is the number of cut constraints generated (0 for SolveDirect).
	Cuts int
	// LPIterations is the total number of simplex pivots performed.
	LPIterations int
	// UpperBound is the objective value of the final master LP: an upper
	// bound on the optimal throughput. It equals Throughput when the loop
	// terminates with no violated cuts, and sits slightly above it when the
	// gap-based termination reports the achievable lower bound instead.
	UpperBound float64
	// WarmPivots and ColdPivots split LPIterations between warm-started
	// dual-simplex re-solves (reusing the previous round's optimal basis)
	// and cold solves from the slack basis.
	WarmPivots int
	ColdPivots int
	// ColdSolves is the number of master solves that ran from the slack
	// basis: 1 for a fully warm-started run (plus any fallback) and for
	// SolveDirect, 0 for a warm delta whose every round re-solved warm.
	ColdSolves int
	// LPWallNanos is the wall-clock time spent inside master LP solves
	// during this resolve, excluding cut separation (the per-destination
	// max-flows) and everything else around the cutting-plane loop. It
	// exists for the solver benchmarks and is never marshaled into the
	// deterministic reports.
	LPWallNanos int64
	// SepWallNanos is the wall-clock time spent separating cuts during this
	// resolve — loading the round's edge rates into the separation network,
	// the chained flow, the fresh max-flows, min-cut extraction and cut
	// bookkeeping. Every round decides each alive destination exactly once:
	// Certified counts the destinations the chained flow certified, MaxFlows
	// those a fresh max-flow decided, so their sum is Rounds times the alive
	// destinations. LPWallNanos and SepWallNanos together account for nearly
	// all of a resolve. The counts are deterministic; the wall, like
	// LPWallNanos, is never marshaled into the deterministic reports.
	SepWallNanos int64
	MaxFlows     int
	Certified    int
	// PortDual holds the final master's one-port prices, for Certify's upper
	// bound: PortDual[u] prices node u's send port, PortDual[n+u] its receive
	// port (n nodes), each the sum of the master's duals over the port's
	// occupation rows, clamped at 0; nil when the solve reports no duals.
	PortDual []float64
	// Packing, when non-nil, is the weighted spanning-tree decomposition of
	// EdgeRate: the primal witness that Throughput is achieved by an actual
	// convex combination of broadcast trees. The solver itself leaves it
	// nil; internal/pack (pack.Decompose) computes and attaches it, and
	// warm sessions re-pack after churn deltas by decomposing the refreshed
	// solution.
	Packing *Packing
}

// Options tunes the solvers: the pivot budget of each master solve.
type Options struct {
	// LP.MaxIterations bounds the simplex pivots of each master solve (zero
	// or a nil LP means defaultPivotBudget).
	LP *lp.Options
	// roundLimit overrides defaultMaxRounds when positive; only the
	// package's tests set it.
	roundLimit int
}

const (
	defaultMaxRounds = 200
	// separationTolerance is the relative violation a cut must exceed to be
	// separated (relative to max(1, tp)).
	separationTolerance = 1e-7
	// gapTolerance stops the cutting-plane loop as soon as the master value
	// (an upper bound) and the smallest destination max-flow (an achievable
	// lower bound, then reported) are within gapTolerance·max(1, tp).
	gapTolerance = 1e-5
	// defaultPivotBudget bounds the worst-case cost of one master solve: on
	// rare, highly degenerate masters the simplex can otherwise spend
	// minutes proving optimality. A phase-2 solve that hits it still returns
	// a primal feasible point to separate against; one that leaves no
	// feasible point surfaces as ErrLPFailed.
	defaultPivotBudget = 30000
)

func (o *Options) maxRounds() int {
	if o != nil && o.roundLimit > 0 {
		return o.roundLimit
	}
	return defaultMaxRounds
}

func (o *Options) lpOptions() *lp.Options {
	if o != nil && o.LP != nil && o.LP.MaxIterations > 0 {
		return o.LP
	}
	return &lp.Options{MaxIterations: defaultPivotBudget}
}

// Errors returned by the solvers.
var (
	ErrNoConvergence = errors.New("steady: cutting-plane solver did not converge")
	ErrLPFailed      = errors.New("steady: linear program could not be solved")
)

// Solve computes the optimal MTP throughput and edge rates with the
// cutting-plane decomposition. The platform must be broadcastable from the
// source (every alive node reachable through live links; on never-mutated
// platforms that is full reachability), which is checked up front.
//
// Solve is a one-shot wrapper around Session: it builds the master, runs the
// cutting-plane loop once and discards the session state. Callers re-solving
// the same platform across mutations should hold a Session instead, which
// reuses the master LP and the accumulated cut pool between calls.
func Solve(p *platform.Platform, source int, opts *Options) (*Solution, error) {
	return NewSession(p, source, opts).Resolve()
}

// SolveDirect encodes LP (2) of the paper directly over the platform's
// current live state: per-destination flow variables x^w_e, edge rates n_e
// and the throughput TP. It has |V|·|E| variables and as many rows, so it is
// intended for small platforms (tests and examples). It is solved cold on
// lp.Revised: the dense tableau pivots on round-off on its all-zero
// right-hand sides and ends "optimal" on infeasible points (six of six
// grid:16 instances). The point, with the occupation rows' duals as its port
// prices, must pass Certify; one that fails is ErrLPFailed, never a
// throughput.
func SolveDirect(p *platform.Platform, source int, opts *Options) (*Solution, error) {
	if err := p.ValidateLive(source); err != nil {
		return nil, err
	}
	if p.NumAliveNodes() == 1 {
		return &Solution{Throughput: math.Inf(1), UpperBound: math.Inf(1), EdgeRate: make([]float64, p.NumLinks()), Rounds: 1}, nil
	}

	problem, read := directProblem(p, source)
	lpSol, err := lp.NewRevised(problem, opts.lpOptions()).Solve()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrLPFailed, err)
	}
	if lpSol.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: status %v", ErrLPFailed, lpSol.Status)
	}
	sol := read(lpSol)
	if _, _, err := Certify(p, source, sol); err != nil {
		return nil, fmt.Errorf("%w: simplex returned an uncertified point as optimal: %v", ErrLPFailed, err)
	}
	return sol, nil
}

// directProblem writes LP (2) over the live state of a platform with at
// least two alive nodes: destinations and relays are the alive nodes, and
// only live links carry flow. The variables of dead links appear in no row.
// On a never-mutated platform every node and link is live. read turns an
// optimal solve of the problem into a Solution.
func directProblem(p *platform.Platform, source int) (problem *lp.Problem, read func(*lp.Solution) *Solution) {
	n := p.NumNodes()
	e := p.NumLinks()

	// Destinations in increasing node order.
	dests := make([]int, 0, n-1)
	for w := 0; w < n; w++ {
		if w != source && p.NodeAlive(w) {
			dests = append(dests, w)
		}
	}
	numDest := len(dests)

	// Variable layout: x[wIdx][e] at wIdx*e + e, then n_e, then TP.
	xVar := func(wIdx, linkID int) int { return wIdx*e + linkID }
	nVar0, tpVar := numDest*e, numDest*e+e
	problem = lp.NewProblem(tpVar + 1)
	problem.SetObjectiveCoeff(tpVar, 1)

	// Flow conservation per destination and alive node.
	for wIdx, w := range dests {
		for v := 0; v < n; v++ {
			if !p.NodeAlive(v) {
				continue
			}
			terms := make([]lp.Term, 0, 8)
			for _, id := range p.OutLinkIDs(v) {
				if p.LinkLive(id) {
					terms = append(terms, lp.Term{Var: xVar(wIdx, id), Coeff: 1})
				}
			}
			for _, id := range p.InLinkIDs(v) {
				if p.LinkLive(id) {
					terms = append(terms, lp.Term{Var: xVar(wIdx, id), Coeff: -1})
				}
			}
			switch v {
			case source:
				// Net outflow of slices destined to w equals TP.
				terms = append(terms, lp.Term{Var: tpVar, Coeff: -1})
			case w:
				// Net inflow equals TP (outflow minus inflow equals -TP).
				terms = append(terms, lp.Term{Var: tpVar, Coeff: 1})
			}
			problem.AddSparseConstraint(terms, lp.EQ, 0)
		}
	}

	// x^w_e <= n_e (constraint (d) relaxed to an inequality, which does not
	// change the optimum since n_e only appears in occupation constraints).
	for wIdx := range dests {
		for id := 0; id < e; id++ {
			if p.LinkLive(id) {
				problem.AddSparseConstraint([]lp.Term{
					{Var: xVar(wIdx, id), Coeff: 1},
					{Var: nVar0 + id, Coeff: -1},
				}, lp.LE, 0)
			}
		}
	}

	// One-port occupation constraints ((f), (g), (i), (j)).
	var occ []occRow
	for u := 0; u < n; u++ {
		if p.NodeAlive(u) {
			occ = addOccupationRows(problem, occ, p, u, nVar0)
		}
	}
	return problem, func(lpSol *lp.Solution) *Solution {
		return &Solution{
			Throughput:   lpSol.X[tpVar],
			UpperBound:   lpSol.X[tpVar],
			EdgeRate:     append([]float64(nil), lpSol.X[nVar0:nVar0+e]...),
			PortDual:     portDual(n, lpSol.Dual, occ),
			Rounds:       1,
			LPIterations: lpSol.Iterations,
			ColdPivots:   lpSol.Iterations,
			ColdSolves:   1,
		}
	}
}
