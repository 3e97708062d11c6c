package pack

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/platform"
)

// master is the restricted master of the column generation — maximize the
// total weight of the trees found so far, the summed weights on each support
// edge staying within its rate — held as its dual on one warm lp.Revised
// handle:
//
//	minimize   Σ_e cap(e)·y(e)
//	subject to Σ_{e∈T} y(e) >= 1   for every tree T,   y >= 0.
//
// A tree is a row there, so a priced column is one appended row re-optimized
// by dual simplex from the previous basis. The y(e) are the pricing costs,
// the optimal value is the master's, and the tree weights are the row
// multipliers (read once, at the end).
type master struct {
	prob   *lp.Problem
	rv     *lp.Revised
	trees  []*platform.Tree
	varOf  []int // platform link ID -> y variable (support index), -1 outside the support
	terms  []lp.Term
	seen   map[string]bool // tree keys, to refuse a column the master holds
	keyBuf []byte
}

func newMaster(support []graph.Edge, rate []float64, numLinks int) *master {
	m := &master{varOf: make([]int, numLinks), seen: map[string]bool{}}
	for id := range m.varOf {
		m.varOf[id] = -1
	}
	prob := lp.NewProblem(len(support))
	for i, e := range support {
		m.varOf[e.ID] = i
		prob.SetObjectiveCoeff(i, -rate[e.ID]) // the LP layer maximizes
	}
	m.prob, m.rv = prob, lp.NewRevised(prob, nil)
	return m
}

// add appends the tree's row to the master; false, and no row, when the
// master already holds a tree with the same edge set.
func (m *master) add(t *platform.Tree) bool {
	// A link enters one node only, so the parent links in node order are a
	// canonical form of the edge set.
	m.keyBuf, m.terms = m.keyBuf[:0], m.terms[:0]
	for _, id := range t.ParentLink {
		m.keyBuf = binary.AppendUvarint(m.keyBuf, uint64(id+1))
		if id >= 0 {
			m.terms = append(m.terms, lp.Term{Var: m.varOf[id], Coeff: 1})
		}
	}
	if m.seen[string(m.keyBuf)] {
		return false
	}
	m.seen[string(m.keyBuf)] = true
	m.prob.AddSparseConstraint(m.terms, lp.GE, 1)
	m.trees = append(m.trees, t)
	return true
}

// solve re-optimizes over the trees added so far and returns the master
// value and the edge prices y, one per support edge.
func (m *master) solve() (value float64, y []float64, err error) {
	sol, err := m.rv.Solve()
	if err != nil {
		return 0, nil, fmt.Errorf("pack: master solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("pack: master solve ended %v", sol.Status)
	}
	y = sol.X
	for i, v := range y {
		if v < 0 {
			y[i] = 0 // solver noise; a price is never negative
		}
	}
	return -sol.Objective, y, nil
}

// weights returns the tree weights of the last solve, one per tree in add
// order: a GE row of a maximization has a non-positive dual, the weight is
// its magnitude.
func (m *master) weights() ([]float64, error) {
	duals := m.rv.Duals()
	if len(duals) != len(m.trees) {
		return nil, fmt.Errorf("pack: master has %d duals for %d trees", len(duals), len(m.trees))
	}
	w := make([]float64, len(duals))
	for i, d := range duals {
		if d < 0 {
			w[i] = -d
		}
	}
	return w, nil
}

// pivots is the number of simplex pivots the master has spent so far.
func (m *master) pivots() int {
	st := m.rv.Stats()
	return st.WarmPivots + st.ColdPivots
}
