package lp

import (
	"context"
	"errors"
	"fmt"
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

// constraint is one stored constraint row: its nonzero terms, each variable
// at most once, in the order the variables first appeared.
type constraint struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// Problem is a linear program under construction. Create one with
// NewProblem, set the objective, add constraints, then solve it with a
// Revised handle.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []constraint
	slot        []int32 // AddSparseConstraint scratch: variable -> term index, -1 when absent
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

// AddSparseConstraint adds a constraint given as a list of (variable,
// coefficient) terms. The terms are copied: coefficients of a repeated
// variable are summed in the order given, and terms whose coefficient is
// exactly zero are dropped, so the row holds one term per nonzero
// coefficient and costs memory in proportion to it, not to NumVars.
func (p *Problem) AddSparseConstraint(terms []Term, rel Relation, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("lp: term variable %d out of range [0, %d)", t.Var, p.numVars))
		}
	}
	if p.slot == nil {
		p.slot = make([]int32, p.numVars)
		for v := range p.slot {
			p.slot[v] = -1
		}
	}
	row := make([]Term, 0, len(terms))
	for _, t := range terms {
		if k := p.slot[t.Var]; k >= 0 {
			row[k].Coeff += t.Coeff
			continue
		}
		p.slot[t.Var] = int32(len(row))
		row = append(row, t)
	}
	kept := row[:0]
	for _, t := range row {
		p.slot[t.Var] = -1
		if t.Coeff != 0 {
			kept = append(kept, t)
		}
	}
	p.constraints = append(p.constraints, constraint{terms: kept, rel: rel, rhs: rhs})
}

// Status is the outcome of a solve.
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
	// Canceled means the solve context was canceled mid-pivot. The basis
	// is neither optimal nor necessarily feasible; SolveContext reports
	// this as ErrCanceled rather than as a Solution.
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
	// one per AddSparseConstraint call in order, with respect to each
	// constraint as given. A cold solve of a Revised handle that reached
	// Optimal fills it; it is nil on any other status and on warm re-solves,
	// which leave the duals to be asked for: Revised.Duals computes them from
	// the warm basis on request. For a maximization problem the dual of a
	// binding LE row is >= 0 — the objective gain per unit of slack added to
	// that row's right-hand side — and that of a binding GE row <= 0.
	Dual []float64
}

// Options tunes the solver.
type Options struct {
	// MaxIterations bounds the total number of pivots (default: 50 times
	// the number of rows plus columns).
	MaxIterations int
}

// simplexTol is the numerical tolerance of the simplex pivoting and
// feasibility tests.
const simplexTol = 1e-9

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// ErrNumerical is returned when a cold solve fails numerically — a basis
// whose refactorization is singular, or an optimal basis the certificate
// rejects: a residual ‖b − B·x_B‖ or a negative basic value past its bound.
// No Solution is reported with it.
var ErrNumerical = errors.New("lp: simplex failed numerically")

// ErrCanceled is returned when a solve context is canceled before the
// simplex reaches a verdict. Every layer above the solver (steady sessions,
// the planning service) wraps — never replaces — this sentinel, so
// errors.Is(err, lp.ErrCanceled) identifies a deadline/cancellation outcome
// at any level of the stack.
var ErrCanceled = errors.New("solve canceled")

// cancelCheckInterval is how many pivots the simplex loops run between
// context checks: coarse enough that the check is free compared to a pivot,
// fine enough that cancellation latency is a handful of pivots.
const cancelCheckInterval = 64

// canceledErr builds the error for an abandoned solve, preserving the
// ErrCanceled sentinel and the context's own cause.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("lp: %w: %v", ErrCanceled, ctx.Err())
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
