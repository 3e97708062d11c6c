package steady

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/platform"
)

// DirectProblem is SolveDirect's LP (2) with the reader of its solves, for
// the dense-oracle regression test; PortLoads are the one-port occupations
// Certify bounds, for FuzzCertify's port mutation.
var (
	DirectProblem = directProblem
	PortLoads     = portLoads
)

// coldEveryRound runs the cutting-plane loop of a fresh session with every
// round's master re-solved cold on a fresh lp.Revised — no basis, no
// factorization carried between rounds — and reports its rounds and pivots:
// the baseline the warm-start tests hold the session's pivot counts to. The
// separation, cut rows and exits are the session's own.
func coldEveryRound(p *platform.Platform, source int, opts *Options) (*Solution, error) {
	s := NewSession(p, source, opts)
	s.refreshSeparator()
	s.buildProblem()
	e := p.NumLinks()
	sol := &Solution{EdgeRate: make([]float64, e)}
	for sol.Rounds < opts.maxRounds() {
		sol.Rounds++
		lpSol, err := lp.NewRevised(s.problem, opts.lpOptions()).Solve()
		if err != nil || lpSol.Status != lp.Optimal {
			return nil, fmt.Errorf("%w: round %d: %v (%v)", ErrLPFailed, sol.Rounds, err, lpSol)
		}
		sol.LPIterations += lpSol.Iterations
		sol.ColdPivots += lpSol.Iterations
		sol.ColdSolves++
		tp := lpSol.X[e]
		for id, live := range s.sep.live {
			sol.EdgeRate[id] = 0
			if live {
				sol.EdgeRate[id] = lpSol.X[id]
			}
			s.sep.chainNet.SetCapacity(id, sol.EdgeRate[id])
			s.sep.freshNet.SetCapacity(id, sol.EdgeRate[id])
		}
		sol.Throughput = tp
		supported, violated := s.separate(tp-separationTolerance*math.Max(1, tp), sol)
		if violated == 0 {
			return sol, nil
		}
		if tp-supported <= gapTolerance*math.Max(1, tp) {
			sol.Throughput = supported
			return sol, nil
		}
	}
	return nil, fmt.Errorf("%w after %d rounds", ErrNoConvergence, sol.Rounds)
}
