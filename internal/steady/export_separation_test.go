package steady

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/platform"
)

// SeparationOutcome is what one separation step did to the cutting-plane
// state: which destinations were violated, how many master rows it added,
// and the new cut partitions it pooled, in the order it added them.
type SeparationOutcome struct {
	Violated []bool
	Added    int
	Pooled   []string
}

// oracleSeparate is the per-destination separation step: in index order, a
// Reset and a bounded max-flow per alive destination on one network, and
// both canonical minimum cuts of every violated one appended to the master.
// It reads the edge rates already loaded into freshNet.
func oracleSeparate(s *Session, threshold float64) (violated []bool, added int) {
	p, source, nw := s.p, s.source, s.sep.freshNet
	n := p.NumNodes()
	violated = make([]bool, n)
	side := make([]bool, n)
	for w := 0; w < n; w++ {
		if w == source || !p.NodeAlive(w) {
			continue
		}
		nw.Reset()
		if nw.MaxFlowBounded(source, w, threshold) >= threshold {
			continue
		}
		violated[w] = true
		cut := nw.MinCutSourceSideInto(source, side)
		if s.addCut(s.crossingLiveLinks(cut), cut) {
			added++
		}
		cut = nw.MinCutSinkSideInto(w, side)
		if s.addCut(s.crossingLiveLinks(cut), cut) {
			added++
		}
	}
	return violated, added
}

// coldSession returns a session over p with its first master built and
// seeded with its crash basis, as rebuild builds it.
func coldSession(p *platform.Platform, source int) *Session {
	s := NewSession(p, source, nil)
	s.refreshSeparator()
	s.buildProblem()
	s.rev = lp.NewRevised(s.problem, s.opts.lpOptions())
	s.rev.Crash(s.crashBasis())
	clear(s.sep.violated)
	return s
}

// ReplaySeparation solves the platform from scratch twice in lockstep, with
// the cutting-plane loop of runLoop: one session separates with the
// production step (separate), the other with the per-destination oracle.
// Every round both masters must return bit-identical solutions — rows added
// in another order would perturb other right-hand sides and move them — and
// check receives both separation outcomes on those rates. It returns the
// production session's rounds, cuts, throughput and separation counters for
// a comparison with Solve.
func ReplaySeparation(p *platform.Platform, source int, check func(round int, got, want SeparationOutcome)) (*Solution, error) {
	prod, orc := coldSession(p, source), coldSession(p, source)
	e := p.NumLinks()
	sol := &Solution{}
	for round := 1; round <= prod.opts.maxRounds(); round++ {
		sol.Rounds = round
		got, err := prod.rev.SolveContext(context.Background())
		if err != nil {
			return nil, err
		}
		want, err := orc.rev.SolveContext(context.Background())
		if err != nil {
			return nil, err
		}
		if got.Status != lp.Optimal || want.Status != lp.Optimal {
			return nil, fmt.Errorf("round %d: master status %v / oracle %v", round, got.Status, want.Status)
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				return nil, fmt.Errorf("round %d: masters diverged at x[%d]: %v vs oracle %v", round, i, got.X[i], want.X[i])
			}
		}
		tp := got.X[e]
		sol.Throughput = tp
		for _, s := range []*Session{prod, orc} {
			for id, live := range s.sep.live {
				rate := 0.0
				if live {
					rate = got.X[id]
				}
				s.sep.chainNet.SetCapacity(id, rate)
				s.sep.freshNet.SetCapacity(id, rate)
			}
		}
		threshold := tp - separationTolerance*math.Max(1, tp)

		var out, ref SeparationOutcome
		pooled := len(prod.pool)
		out.Added = prod.separate(threshold, sol)
		out.Violated = slices.Clone(prod.sep.violated)
		out.Pooled = slices.Clone(prod.pool[pooled:])
		pooled = len(orc.pool)
		ref.Violated, ref.Added = oracleSeparate(orc, threshold)
		ref.Pooled = slices.Clone(orc.pool[pooled:])
		check(round, out, ref)

		sol.Cuts = len(prod.seen)
		if out.Added == 0 {
			return sol, nil
		}
	}
	return sol, ErrNoConvergence
}

// ChainedSeparation returns one production separation step over the
// platform at fixed edge rates and violation threshold, for the separation
// benchmark: every call reloads the rates and separates as the first round
// of a resolve does (no destination violated before), and reports the fresh
// max-flows and the certified destinations. The cuts go into a master built
// once; after the first call they are all duplicates.
func ChainedSeparation(p *platform.Platform, source int, rates []float64, threshold float64) func() (flows, certified int) {
	s := coldSession(p, source)
	return func() (int, int) {
		for id, rate := range rates {
			s.sep.chainNet.SetCapacity(id, rate)
			s.sep.freshNet.SetCapacity(id, rate)
		}
		clear(s.sep.violated)
		var sol Solution
		s.separate(threshold, &sol)
		return sol.MaxFlows, sol.Certified
	}
}
