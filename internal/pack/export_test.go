package pack

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/steady"
)

// DecomposeAgainstOracle is Decompose with the restricted master re-solved,
// after every round and on the same tree set, by refSolveMaster; check sees
// both values. The tests that need it live in package pack_test because the
// scenario registry imports this package.
func DecomposeAgainstOracle(p *platform.Platform, source int, sol *steady.Solution, opts *Options, check func(round int, value, oracle float64)) (*steady.Packing, error) {
	round := 0
	var oracleErr error
	pk, err := decompose(p, source, sol, opts, func(m *master, value float64) {
		support := make([]graph.Edge, 0, len(m.varOf))
		caps := make([]float64, 0, len(m.varOf))
		for id, v := range m.varOf {
			if v >= 0 {
				support = append(support, graph.Edge{ID: id})
				caps = append(caps, sol.EdgeRate[id])
			}
		}
		ref, _, err := refSolveMaster(m.trees, support, caps)
		if err != nil {
			oracleErr = err
			return
		}
		check(round, value, ref.Objective)
		round++
	})
	if oracleErr != nil {
		return pk, oracleErr
	}
	return pk, err
}

// refSolveMaster is the restricted master as this package solved it before
// the warm dual master, kept verbatim as the differential oracle: the primal
// — maximize the total weight of the current trees subject to the summed
// per-edge weights staying within the support capacities — rebuilt from
// scratch and cold-solved on the dense tableau. It returns the LP solution
// (for its duals) plus the per-tree weights.
func refSolveMaster(trees []*platform.Tree, support []graph.Edge, caps []float64) (*lp.Solution, []float64, error) {
	prob := lp.NewProblem(len(trees))
	obj := make([]float64, len(trees))
	for i := range obj {
		obj[i] = 1
	}
	prob.SetObjective(obj)
	// One capacity row per support edge, in support order (the dual index
	// contract pricing relies on). usage[edge index] -> tree terms.
	rowOf := make(map[int]int, len(support)) // link ID -> support index
	for i, e := range support {
		rowOf[e.ID] = i
	}
	terms := make([][]lp.Term, len(support))
	for ti, t := range trees {
		for _, id := range t.LinkIDs() {
			ri := rowOf[id]
			terms[ri] = append(terms[ri], lp.Term{Var: ti, Coeff: 1})
		}
	}
	for i := range support {
		prob.AddSparseConstraint(terms[i], lp.LE, caps[i])
	}
	sol, err := lp.Solve(prob, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("pack: master solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("pack: master solve ended %v", sol.Status)
	}
	return sol, sol.X, nil
}
