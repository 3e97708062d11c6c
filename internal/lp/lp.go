package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Relation is the direction of a linear constraint.
type Relation int

const (
	// LE is a_i·x <= b_i.
	LE Relation = iota
	// GE is a_i·x >= b_i.
	GE
	// EQ is a_i·x == b_i.
	EQ
)

// String returns the usual symbol for the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Term is a single coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// constraint is an internal dense constraint row.
type constraint struct {
	coeffs []float64
	rel    Relation
	rhs    float64
}

// Problem is a linear program under construction. Create one with
// NewProblem, set the objective, add constraints, then call Solve.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []constraint
}

// NewProblem returns an empty maximization problem with numVars decision
// variables (all implicitly >= 0) and a zero objective.
func NewProblem(numVars int) *Problem {
	if numVars <= 0 {
		panic(fmt.Sprintf("lp: non-positive variable count %d", numVars))
	}
	return &Problem{
		numVars:   numVars,
		objective: make([]float64, numVars),
	}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective sets the maximization objective coefficients. The slice is
// copied; it must have exactly NumVars entries.
func (p *Problem) SetObjective(c []float64) {
	if len(c) != p.numVars {
		panic(fmt.Sprintf("lp: objective has %d coefficients, want %d", len(c), p.numVars))
	}
	copy(p.objective, c)
}

// SetObjectiveCoeff sets a single objective coefficient.
func (p *Problem) SetObjectiveCoeff(v int, c float64) {
	p.objective[v] = c
}

// AddConstraint adds a dense constraint row. The coefficient slice is
// copied; it must have exactly NumVars entries.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) {
	if len(coeffs) != p.numVars {
		panic(fmt.Sprintf("lp: constraint has %d coefficients, want %d", len(coeffs), p.numVars))
	}
	row := make([]float64, p.numVars)
	copy(row, coeffs)
	p.constraints = append(p.constraints, constraint{coeffs: row, rel: rel, rhs: rhs})
}

// AddSparseConstraint adds a constraint given as a list of (variable,
// coefficient) terms; coefficients of repeated variables are accumulated.
func (p *Problem) AddSparseConstraint(terms []Term, rel Relation, rhs float64) {
	row := make([]float64, p.numVars)
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("lp: term variable %d out of range [0, %d)", t.Var, p.numVars))
		}
		row[t.Var] += t.Coeff
	}
	p.constraints = append(p.constraints, constraint{coeffs: row, rel: rel, rhs: rhs})
}

// Status is the outcome of a Solve call.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be made arbitrarily large.
	Unbounded
	// IterationLimit means the solver stopped before convergence.
	IterationLimit
	// Canceled means the solve context was canceled mid-pivot. The tableau
	// is structurally consistent (pivots are atomic) but the basis is
	// neither optimal nor necessarily feasible; SolveContext reports this
	// as ErrCanceled rather than as a Solution.
	Canceled
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status     Status
	Objective  float64   // objective value of X (valid when Status == Optimal)
	X          []float64 // values of the decision variables
	Iterations int       // total simplex pivots (both phases)
	// Phase is the simplex phase the solver stopped in: 1 while searching
	// for an initial feasible basis, 2 while optimizing the objective.
	// Problems whose slack basis is immediately feasible (no artificial
	// variables needed) skip phase 1 and always report phase 2.
	Phase int
	// Feasible reports whether X is a primal feasible point. It is true for
	// Optimal solves and for phase-2 iteration limits (primal pivots preserve
	// feasibility); it is false for Infeasible, Unbounded and phase-1
	// iteration limits. In particular a phase-1 IterationLimit leaves X as
	// the all-zero vector, which in general violates the constraints and must
	// not be consumed as a solution.
	Feasible bool
	// Dual holds the optimal dual values (shadow prices) of the constraints,
	// one per AddConstraint/AddSparseConstraint call in order, with respect to
	// each constraint as given. Cold solves that reached Optimal fill it —
	// Solve, and the first or a fallback solve of a Revised handle; it is nil
	// on any other status and on warm re-solves, which leave the duals to be
	// asked for: Revised.Duals computes them from the warm basis on request.
	// For a maximization problem the dual of a binding LE row is >= 0 — the
	// objective gain per unit of slack added to that row's right-hand side —
	// and that of a binding GE row <= 0.
	Dual []float64
}

// Options tunes the solver.
type Options struct {
	// MaxIterations bounds the total number of pivots (default: 50 times
	// the number of rows plus columns).
	MaxIterations int
	// Tolerance is the numerical tolerance used for pivoting and
	// feasibility tests (default 1e-9).
	Tolerance float64
	// RefactorInterval overrides the update-count refactorization trigger of
	// the revised simplex (default etaLimit): after this many eta updates the
	// basis factorization is rebuilt from scratch. Lower values trade
	// refactorization work for shorter eta chains; tests use 1–8 to pin the
	// refactor-boundary behavior. Ignored by the dense solvers.
	RefactorInterval int
}

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// ErrNotCertified is returned by the dense solver when the point its final
// tableau describes violates the problem's own constraints: on massively
// degenerate problems the dense ratio test can pivot on round-off and end
// "optimal" far outside the feasible region. Such a point is reported as
// this error, never as a Solution.
var ErrNotCertified = errors.New("lp: dense simplex ended on a point that violates its constraints")

// ErrCanceled is returned when a solve context is canceled before the
// simplex reaches a verdict. Every layer above the solver (steady sessions,
// the planning service) wraps — never replaces — this sentinel, so
// errors.Is(err, lp.ErrCanceled) identifies a deadline/cancellation outcome
// at any level of the stack.
var ErrCanceled = errors.New("solve canceled")

// cancelCheckInterval is how many pivots the simplex loops run between
// context checks: coarse enough that the check is free compared to a dense
// pivot, fine enough that cancellation latency is a handful of pivots.
const cancelCheckInterval = 64

// Solve solves the problem with the two-phase primal simplex method on a
// dense tableau.
func Solve(p *Problem, opts *Options) (*Solution, error) {
	return SolveContext(context.Background(), p, opts)
}

// canceledErr builds the error for an abandoned solve, preserving the
// ErrCanceled sentinel and the context's own cause.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("lp: %w: %v", ErrCanceled, ctx.Err())
}

// SolveContext is Solve with cooperative cancellation: the pivot loops check
// ctx every cancelCheckInterval pivots and abandon the solve with an error
// wrapping ErrCanceled once the context is done. A nil ctx is treated as
// context.Background().
func SolveContext(ctx context.Context, p *Problem, opts *Options) (*Solution, error) {
	if p == nil || p.numVars == 0 {
		return nil, ErrBadProblem
	}
	tol := 1e-9
	if opts != nil && opts.Tolerance > 0 {
		tol = opts.Tolerance
	}

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
			// feasible point. Callers must check Phase (or Feasible) before
			// consuming X.
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
// reports the first violation as an error wrapping ErrNotCertified.
func (p *Problem) certify(x []float64) error {
	for j, v := range x {
		if v < -certifyTol {
			return fmt.Errorf("%w: x[%d] = %g", ErrNotCertified, j, v)
		}
	}
	for i, c := range p.constraints {
		var lhs, scale float64
		for j, a := range c.coeffs {
			lhs += a * x[j]
			scale += math.Abs(a * x[j])
		}
		slack := c.rhs - lhs // >= 0 satisfies LE, <= 0 satisfies GE
		tol := certifyTol * math.Max(1, math.Max(math.Abs(c.rhs), scale))
		if (c.rel != GE && slack < -tol) || (c.rel != LE && slack > tol) {
			return fmt.Errorf("%w: constraint %d: %g %v %g", ErrNotCertified, i, lhs, c.rel, c.rhs)
		}
	}
	return nil
}

// Minimize converts a minimization objective into the maximization form
// expected by Problem.SetObjective (it simply negates the coefficients) and
// returns the negated vector. The optimal objective of the original
// minimization problem is then -Solution.Objective.
func Minimize(c []float64) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = -v
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
