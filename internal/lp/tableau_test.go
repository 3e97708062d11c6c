package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// This file holds the package's in-package reference solver: the two-phase
// primal simplex on a dense tableau (Dantzig pricing, Bland anti-cycling
// fallback). It is test code only — Revised is the solver — and the tests
// compare Revised against it. Every pivot touches the whole tableau, which
// caps it at small problems. The point it ends on is checked against the
// problem's own constraints (1e-6 relative) before it is reported: on
// massively degenerate problems the dense ratio test can pivot on round-off
// and end "optimal" outside the feasible region, which surfaces as
// errNotCertified, never as a Solution.

// errNotCertified is returned by the dense solver when the point its final
// tableau describes violates the problem's own constraints.
var errNotCertified = errors.New("lp: dense simplex ended on a point that violates its constraints")

// denseSolve solves the problem with the two-phase primal simplex method on
// a dense tableau.
func denseSolve(p *Problem, opts *Options) (*Solution, error) {
	return denseSolveContext(context.Background(), p, opts)
}

// denseSolveContext is denseSolve with cooperative cancellation: the pivot
// loops check ctx every cancelCheckInterval pivots and abandon the solve with
// an error wrapping ErrCanceled once the context is done. A nil ctx is
// treated as context.Background().
func denseSolveContext(ctx context.Context, p *Problem, opts *Options) (*Solution, error) {
	if p == nil || p.numVars == 0 {
		return nil, ErrBadProblem
	}
	tol := simplexTol

	m := len(p.constraints)
	if m == 0 {
		// No constraints: optimum is 0 if all objective coefficients are
		// non-positive, unbounded otherwise.
		for _, c := range p.objective {
			if c > tol {
				return &Solution{Status: Unbounded, X: make([]float64, p.numVars), Phase: 2}, nil
			}
		}
		return &Solution{Status: Optimal, Objective: 0, X: make([]float64, p.numVars), Phase: 2, Feasible: true, Dual: []float64{}}, nil
	}

	t := newTableau(p, tol)
	maxIter := 50 * (t.rows + t.cols)
	if opts != nil && opts.MaxIterations > 0 {
		maxIter = opts.MaxIterations
	}

	sol := &Solution{X: make([]float64, p.numVars)}

	// Phase 1: drive artificial variables to zero, if any are needed.
	if t.numArtificial > 0 {
		sol.Phase = 1
		phase1 := make([]float64, t.cols)
		for _, j := range t.artificialCols {
			phase1[j] = -1
		}
		t.setCostRow(phase1)
		status := t.iterate(ctx, maxIter, &sol.Iterations, false)
		if status == Canceled {
			return nil, canceledErr(ctx)
		}
		if status == IterationLimit {
			// No feasible basis was reached: X stays all-zero and is NOT a
			// feasible point.
			sol.Status = IterationLimit
			return sol, nil
		}
		// The phase-1 optimum is -(sum of artificials); a strictly negative
		// value means some artificial variable cannot be driven to zero.
		if t.objectiveValue() < -1e-7 {
			sol.Status = Infeasible
			return sol, nil
		}
		t.forbidArtificials()
	}

	// Phase 2: optimize the real objective.
	sol.Phase = 2
	phase2 := make([]float64, t.cols)
	copy(phase2, p.objective)
	t.setCostRow(phase2)
	status := t.iterate(ctx, maxIter, &sol.Iterations, true)
	if status == Canceled {
		return nil, canceledErr(ctx)
	}
	sol.Status = status
	if status == Unbounded {
		return sol, nil
	}
	// Optimal or phase-2 iteration limit: primal pivots keep the basis
	// feasible in exact arithmetic, so X should be a usable point — which is
	// checked against the problem, not taken from the tableau's word.
	t.extract(sol.X)
	if err := p.certify(sol.X); err != nil {
		return nil, err
	}
	sol.Objective = dot(p.objective, sol.X)
	sol.Feasible = true
	if status == Optimal {
		sol.Dual = t.duals()
	}
	return sol, nil
}

// certifyTol is the relative tolerance of certify.
const certifyTol = 1e-6

// certify checks x against the problem as given — x >= 0 and every constraint
// row — to certifyTol relative to the magnitude of the row's terms, and
// reports the first violation as an error wrapping errNotCertified.
func (p *Problem) certify(x []float64) error {
	for j, v := range x {
		if v < -certifyTol {
			return fmt.Errorf("%w: x[%d] = %g", errNotCertified, j, v)
		}
	}
	for i, c := range p.constraints {
		var lhs, scale float64
		for _, t := range c.terms {
			lhs += t.Coeff * x[t.Var]
			scale += math.Abs(t.Coeff * x[t.Var])
		}
		slack := c.rhs - lhs // >= 0 satisfies LE, <= 0 satisfies GE
		tol := certifyTol * math.Max(1, math.Max(math.Abs(c.rhs), scale))
		if (c.rel != GE && slack < -tol) || (c.rel != LE && slack > tol) {
			return fmt.Errorf("%w: constraint %d: %g %v %g", errNotCertified, i, lhs, c.rel, c.rhs)
		}
	}
	return nil
}

// tableau is the dense simplex tableau. Columns are laid out as
// [decision variables | slack/surplus variables | artificial variables],
// with the right-hand side stored separately. Row i describes the current
// expression of basic variable basis[i] in terms of the non-basic columns.
type tableau struct {
	rows int // number of constraints
	cols int // total number of structural columns (vars + slacks + artificials)

	a     [][]float64 // rows x cols coefficient matrix
	rhs   []float64   // rows right-hand sides (always kept >= 0 up to tolerance)
	basis []int       // column currently basic in each row

	cost    []float64 // current reduced-cost row (length cols)
	costRHS float64   // negative of the current objective value

	numVars        int
	numArtificial  int
	artificialCols []int
	banned         []bool // columns forbidden from entering (artificials in phase 2)

	// idCols[i] is the identity column created for row i (the slack of an LE
	// row, the artificial of a GE/EQ row): the column whose initial
	// coefficient vector is the i-th unit vector. At optimality its reduced
	// cost is -y_i, the simplex multiplier of the row, which is how duals()
	// recovers the shadow prices without a separate basis inverse. rowSign[i]
	// is -1 when the row was negated on entry (negative right-hand side), so
	// the dual is reported with respect to the constraint as given.
	idCols  []int
	rowSign []float64

	tol float64
}

// newTableau builds the initial tableau for the problem: every constraint
// gets a slack (LE), a surplus plus an artificial (GE), or an artificial
// (EQ); rows with negative right-hand sides are negated first so the
// starting basis (slacks and artificials) is feasible.
func newTableau(p *Problem, tol float64) *tableau {
	m := len(p.constraints)
	n := p.numVars

	// First pass: count slack and artificial columns.
	numSlack, numArtificial := 0, 0
	for _, c := range p.constraints {
		rel, rhs := c.rel, c.rhs
		if rhs < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArtificial++
		case EQ:
			numArtificial++
		}
	}

	cols := n + numSlack + numArtificial
	t := &tableau{
		rows:    m,
		cols:    cols,
		a:       make([][]float64, m),
		rhs:     make([]float64, m),
		basis:   make([]int, m),
		cost:    make([]float64, cols),
		numVars: n,
		banned:  make([]bool, cols),
		idCols:  make([]int, m),
		rowSign: make([]float64, m),
		tol:     tol,
	}

	slackCol := n
	artCol := n + numSlack
	for i, c := range p.constraints {
		row := make([]float64, cols)
		rhs := c.rhs
		sign := 1.0
		rel := c.rel
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			rel = flip(rel)
		}
		for _, t := range c.terms {
			row[t.Var] = sign * t.Coeff
		}
		switch rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			t.idCols[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			t.idCols[i] = artCol
			t.artificialCols = append(t.artificialCols, artCol)
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			t.idCols[i] = artCol
			t.artificialCols = append(t.artificialCols, artCol)
			artCol++
		}
		t.rowSign[i] = sign
		t.a[i] = row
		t.rhs[i] = rhs
	}
	t.numArtificial = numArtificial
	return t
}

// setCostRow installs a new objective (given over all structural columns;
// missing entries are zero) and prices it against the current basis so that
// t.cost holds reduced costs and t.costRHS holds the negated objective value.
func (t *tableau) setCostRow(c []float64) {
	copy(t.cost, c)
	for j := len(c); j < t.cols; j++ {
		t.cost[j] = 0
	}
	t.costRHS = 0
	for i := 0; i < t.rows; i++ {
		cb := basicCost(c, t.basis[i])
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.cols; j++ {
			t.cost[j] -= cb * row[j]
		}
		t.costRHS -= cb * t.rhs[i]
	}
}

func basicCost(c []float64, col int) float64 {
	if col < len(c) {
		return c[col]
	}
	return 0
}

// objectiveValue returns the current objective value.
func (t *tableau) objectiveValue() float64 { return -t.costRHS }

// forbidArtificials bans artificial columns from entering the basis (used
// when switching to phase 2) and tries to pivot any artificial variable that
// is still basic (necessarily at level zero) out of the basis.
func (t *tableau) forbidArtificials() {
	isArtificial := make(map[int]bool, len(t.artificialCols))
	for _, j := range t.artificialCols {
		t.banned[j] = true
		isArtificial[j] = true
	}
	for i := 0; i < t.rows; i++ {
		if !isArtificial[t.basis[i]] {
			continue
		}
		// Pivot on any non-artificial column with a nonzero coefficient.
		for j := 0; j < t.cols; j++ {
			if t.banned[j] {
				continue
			}
			if math.Abs(t.a[i][j]) > t.tol {
				t.pivot(i, j)
				break
			}
		}
		// If no pivot column exists the row is redundant; the artificial
		// stays basic at zero, which does not affect the optimum.
	}
}

// iterate runs primal simplex pivots until optimality, unboundedness or the
// iteration limit. detectUnbounded controls whether an entering column with
// no positive row coefficient reports Unbounded (phase 1 can never be
// unbounded, so it passes false).
//
// Pricing uses Dantzig's rule and permanently switches to Bland's rule once
// the objective value stalls for a long stretch of (necessarily degenerate)
// pivots, which guarantees termination without paying Bland's slow
// convergence on well-behaved problems.
func (t *tableau) iterate(ctx context.Context, maxIter int, counter *int, detectUnbounded bool) Status {
	stallLimit := 4 * (t.rows + 16)
	lastObjective := t.objectiveValue()
	stalled := 0
	useBland := false
	for {
		if *counter%cancelCheckInterval == 0 && pollCtx(ctx) {
			return Canceled
		}
		if !useBland {
			if obj := t.objectiveValue(); obj > lastObjective+t.tol {
				lastObjective = obj
				stalled = 0
			} else {
				stalled++
				if stalled > stallLimit {
					useBland = true
				}
			}
		}

		enter := t.chooseEntering(useBland)
		if enter < 0 {
			return Optimal
		}
		// Optimality is checked before the budget so that a basis that is
		// already optimal when the last pivot exhausted the allowance is
		// reported Optimal, not IterationLimit.
		if *counter >= maxIter {
			return IterationLimit
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			if detectUnbounded {
				return Unbounded
			}
			// Phase 1 objective is bounded above by zero; a missing ratio
			// here can only be a numerical artifact. Treat as optimal.
			return Optimal
		}
		t.pivot(leave, enter)
		*counter++
	}
}

// chooseEntering picks the entering column: the one with the most positive
// reduced cost (Dantzig) or the lowest-index positive one (Bland).
func (t *tableau) chooseEntering(bland bool) int {
	best := -1
	bestVal := t.tol
	for j := 0; j < t.cols; j++ {
		if t.banned[j] {
			continue
		}
		if t.cost[j] > bestVal {
			if bland {
				return j
			}
			best = j
			bestVal = t.cost[j]
		}
	}
	return best
}

// relTol is the comparison tolerance for quantities of the magnitude of ref:
// the base tolerance plus a component proportional to |ref|, so that ratio
// comparisons (and hence pivot selection) do not flip when the problem data
// is scaled up. The absolute floor is deliberate: degenerate bases produce
// swarms of ratios differing only by noise around zero, and merging those
// into ties (resolved by the deterministic tie-breaks of the callers) is
// what keeps the pivoting from crawling through degenerate stretches — so
// rescaling a platform far enough *down* that distinct ratios sink below the
// floor still lands in the tie regime, by design.
func (t *tableau) relTol(ref float64) float64 {
	if ref < 0 {
		ref = -ref
	}
	if math.IsInf(ref, 1) {
		return t.tol
	}
	return t.tol * (1 + ref)
}

// chooseLeaving performs the minimum-ratio test for the entering column and
// returns the pivot row, or -1 if no row bounds the entering variable.
// Ties (up to a tolerance relative to the ratio magnitude, so the choice does
// not flip on rescaled platforms) are broken by the smallest basic-variable
// index — a lexicographic-ish rule that combines well with the Bland
// fallback.
func (t *tableau) chooseLeaving(enter int) int {
	best := -1
	bestRatio := 0.0
	for i := 0; i < t.rows; i++ {
		coef := t.a[i][enter]
		if coef <= t.tol {
			continue
		}
		ratio := t.rhs[i] / coef
		if best < 0 {
			best, bestRatio = i, ratio
			continue
		}
		eps := t.relTol(bestRatio)
		switch {
		case ratio < bestRatio-eps:
			best, bestRatio = i, ratio
		case ratio <= bestRatio+eps && t.basis[i] < t.basis[best]:
			best = i
			if ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}
	return best
}

// duals returns the simplex multipliers (shadow prices) of the constraint
// rows with respect to the constraints as originally given: the reduced cost
// of each row's identity column is -y_i for the stored (sign-normalized) row,
// and rowSign maps it back onto the caller's orientation. The values are
// meaningful only at phase-2 optimality, where setCostRow has repriced every
// column — banned artificials included — against the optimal basis.
func (t *tableau) duals() []float64 {
	out := make([]float64, t.rows)
	for i := 0; i < t.rows; i++ {
		out[i] = -t.cost[t.idCols[i]] * t.rowSign[i]
	}
	return out
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	row := t.a[leave]
	p := row[enter]
	inv := 1 / p
	for j := 0; j < t.cols; j++ {
		row[j] *= inv
	}
	t.rhs[leave] *= inv
	row[enter] = 1 // avoid drift

	for i := 0; i < t.rows; i++ {
		if i == leave {
			continue
		}
		factor := t.a[i][enter]
		if factor == 0 {
			continue
		}
		target := t.a[i]
		for j := 0; j < t.cols; j++ {
			target[j] -= factor * row[j]
		}
		target[enter] = 0
		t.rhs[i] -= factor * t.rhs[leave]
		if t.rhs[i] < 0 && t.rhs[i] > -t.tol {
			t.rhs[i] = 0
		}
	}

	factor := t.cost[enter]
	if factor != 0 {
		for j := 0; j < t.cols; j++ {
			t.cost[j] -= factor * row[j]
		}
		t.cost[enter] = 0
		t.costRHS -= factor * t.rhs[leave]
	}
	t.basis[leave] = enter
}

// extract writes the values of the decision variables into x.
func (t *tableau) extract(x []float64) {
	for i := range x {
		x[i] = 0
	}
	for i := 0; i < t.rows; i++ {
		b := t.basis[i]
		if b < t.numVars {
			v := t.rhs[i]
			if v < 0 && v > -t.tol {
				v = 0
			}
			x[b] = v
		}
	}
}
