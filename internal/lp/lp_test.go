package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// addDense adds a constraint given as a full coefficient row, one entry per
// variable: the tests' shorthand for a sparse row of its nonzero entries.
func (p *Problem) addDense(coeffs []float64, rel Relation, rhs float64) {
	if len(coeffs) != p.numVars {
		panic(fmt.Sprintf("lp: constraint has %d coefficients, want %d", len(coeffs), p.numVars))
	}
	terms := make([]Term, 0, len(coeffs))
	for j, a := range coeffs {
		if a != 0 {
			terms = append(terms, Term{Var: j, Coeff: a})
		}
	}
	p.AddSparseConstraint(terms, rel, rhs)
}

// kktTol is the relative tolerance of assertOptimal.
const kktTol = 1e-9

// assertOptimal checks the Karush–Kuhn–Tucker optimality conditions of an
// Optimal solution against the problem as given, with the duals in sol.Dual:
//   - primal feasibility: x >= 0 and every row within kktTol of the
//     magnitude of its terms and right-hand side;
//   - dual signs: LE duals >= 0, GE duals <= 0, EQ duals free;
//   - dual feasibility: every column's reduced cost c_j − Σ_i a_ij·y_i <= 0,
//     within kktTol of the magnitude of its terms;
//   - strong duality: |c·x − b·y| <= kktTol·max(1, |c·x|), and the reported
//     objective is c·x.
func assertOptimal(t testing.TB, p *Problem, sol *Solution) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if len(sol.Dual) != len(p.constraints) {
		t.Fatalf("%d duals for %d constraints", len(sol.Dual), len(p.constraints))
	}
	for j, x := range sol.X {
		if x < -kktTol {
			t.Fatalf("primal infeasible: x[%d] = %g", j, x)
		}
	}
	aty := make([]float64, p.numVars)    // Σ_i a_ij·y_i
	atyAbs := make([]float64, p.numVars) // Σ_i |a_ij·y_i|
	var by float64
	for i, c := range p.constraints {
		y := sol.Dual[i]
		var lhs, scale float64
		for _, term := range c.terms {
			v := term.Coeff * sol.X[term.Var]
			lhs += v
			scale += math.Abs(v)
			aty[term.Var] += term.Coeff * y
			atyAbs[term.Var] += math.Abs(term.Coeff * y)
		}
		slack := c.rhs - lhs // >= 0 satisfies LE, <= 0 satisfies GE
		tol := kktTol * math.Max(1, math.Max(math.Abs(c.rhs), scale))
		if (c.rel != GE && slack < -tol) || (c.rel != LE && slack > tol) {
			t.Fatalf("primal infeasible: row %d: %v %v %v", i, lhs, c.rel, c.rhs)
		}
		if (c.rel == LE && y < -kktTol) || (c.rel == GE && y > kktTol) {
			t.Fatalf("dual sign: row %d (%v) has dual %g", i, c.rel, y)
		}
		by += c.rhs * y
	}
	for j, c := range p.objective {
		tol := kktTol * math.Max(1, math.Max(math.Abs(c), atyAbs[j]))
		if d := c - aty[j]; d > tol {
			t.Fatalf("dual infeasible: column %d has reduced cost c − Aᵀy = %g", j, d)
		}
	}
	cx := dot(p.objective, sol.X)
	tol := kktTol * math.Max(1, math.Abs(cx))
	if math.Abs(cx-by) > tol {
		t.Fatalf("strong duality: c·x = %v, b·y = %v (diff %g)", cx, by, cx-by)
	}
	if math.Abs(sol.Objective-cx) > tol {
		t.Fatalf("objective %v is not c·x = %v", sol.Objective, cx)
	}
}

// assertRevisedOptimal is assertOptimal for the last solve of a Revised
// handle, cold or warm: the duals are the handle's Duals().
func assertRevisedOptimal(t testing.TB, rv *Revised, sol *Solution) {
	t.Helper()
	withDuals := *sol
	withDuals.Dual = rv.Duals()
	assertOptimal(t, rv.p, &withDuals)
}

// solveOK solves p cold on a Revised handle; an Optimal verdict must pass
// assertOptimal.
func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := NewRevised(p, nil).Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status == Optimal {
		assertOptimal(t, p, sol)
	}
	return sol
}

// denseOK solves p on the dense reference; an Optimal verdict must pass
// assertOptimal.
func denseOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := denseSolve(p, nil)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	if sol.Status == Optimal {
		assertOptimal(t, p, sol)
	}
	return sol
}

func TestRelationAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("relation strings wrong")
	}
	if Relation(9).String() == "" {
		t.Fatal("unknown relation string empty")
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, IterationLimit, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestSimpleMaximization(t *testing.T) {
	// maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6.
	p := NewProblem(2)
	p.SetObjective([]float64{3, 2})
	p.addDense([]float64{1, 1}, LE, 4)
	p.addDense([]float64{1, 3}, LE, 6)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-12) > 1e-7 {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if math.Abs(sol.X[0]-4) > 1e-7 || math.Abs(sol.X[1]) > 1e-7 {
		t.Fatalf("x = %v, want [4 0]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// maximize x + y s.t. x + y = 5, x <= 3.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.addDense([]float64{1, 1}, EQ, 5)
	p.addDense([]float64{1, 0}, LE, 3)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-5) > 1e-7 {
		t.Fatalf("objective = %v, want 5", sol.Objective)
	}
	if math.Abs(sol.X[0]+sol.X[1]-5) > 1e-7 {
		t.Fatalf("equality violated: %v", sol.X)
	}
}

func TestMinimizationViaNegation(t *testing.T) {
	// minimize x + y s.t. x + 2y >= 4, 3x + y >= 6 -> optimum 2.8 at (1.6, 1.2).
	p := NewProblem(2)
	p.SetObjective(Minimize([]float64{1, 1}))
	p.addDense([]float64{1, 2}, GE, 4)
	p.addDense([]float64{3, 1}, GE, 6)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(-sol.Objective-2.8) > 1e-6 {
		t.Fatalf("minimum = %v, want 2.8", -sol.Objective)
	}
	if math.Abs(sol.X[0]-1.6) > 1e-6 || math.Abs(sol.X[1]-1.2) > 1e-6 {
		t.Fatalf("x = %v, want [1.6 1.2]", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.addDense([]float64{1}, LE, 1)
	p.addDense([]float64{1}, GE, 2)
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	// x + y = 10 with x <= 2, y <= 3 is infeasible.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 0})
	p.addDense([]float64{1, 1}, EQ, 10)
	p.addDense([]float64{1, 0}, LE, 2)
	p.addDense([]float64{0, 1}, LE, 3)
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// maximize x with only y bounded.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 0})
	p.addDense([]float64{0, 1}, LE, 1)
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{0, -1})
	sol := solveOK(t, p)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("sol = %+v", sol)
	}
	p.SetObjective([]float64{1, 0})
	sol = solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x - y <= -2  is  x + y >= 2; minimize x + y -> 2.
	p := NewProblem(2)
	p.SetObjective(Minimize([]float64{1, 1}))
	p.addDense([]float64{-1, -1}, LE, -2)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(-sol.Objective-2) > 1e-7 {
		t.Fatalf("minimum = %v, want 2", -sol.Objective)
	}
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(4)
	p.SetObjective([]float64{1, 1, 1, 1})
	p.AddSparseConstraint([]Term{{Var: 0, Coeff: 1}, {Var: 2, Coeff: 1}, {Var: 0, Coeff: 1}}, LE, 4)
	p.AddSparseConstraint([]Term{{Var: 1, Coeff: 1}, {Var: 3, Coeff: 2}}, LE, 2)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// 2x0 + x2 <= 4 and x1 + 2x3 <= 2; best is x2=4, x1=2 -> objective 6.
	if math.Abs(sol.Objective-6) > 1e-7 {
		t.Fatalf("objective = %v, want 6", sol.Objective)
	}
}

// TestSparseRowsHoldTheirNonzeros pins the stored row format: a repeated
// variable's coefficients are summed in the order given, the variable keeping
// its first position, and exact zeros — given or summed — are dropped.
func TestSparseRowsHoldTheirNonzeros(t *testing.T) {
	p := NewProblem(5)
	p.AddSparseConstraint([]Term{{Var: 3, Coeff: 1}, {Var: 1, Coeff: 2}, {Var: 4, Coeff: 0},
		{Var: 2, Coeff: 1}, {Var: 3, Coeff: 0.5}, {Var: 2, Coeff: -1}}, GE, 7)
	p.AddSparseConstraint(nil, LE, 1)
	want := []Term{{Var: 3, Coeff: 1.5}, {Var: 1, Coeff: 2}}
	if got := p.constraints[0]; !reflect.DeepEqual(got.terms, want) || got.rel != GE || got.rhs != 7 {
		t.Fatalf("row 0 = %+v, want terms %v, >= 7", got, want)
	}
	if got := p.constraints[1].terms; len(got) != 0 {
		t.Fatalf("empty row stored terms %v", got)
	}
}

// TestSparseRowAllocation is the allocation regression test of the row
// format: rows cost memory in proportion to their terms, not to NumVars, so
// a thousand two-term rows over ten thousand variables allocate well under a
// megabyte.
func TestSparseRowAllocation(t *testing.T) {
	const n, rows = 10000, 1000
	p := NewProblem(n)
	terms := make([]Term, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		terms[0], terms[1] = Term{Var: i, Coeff: 1}, Term{Var: n - 1 - i, Coeff: -1}
		p.AddSparseConstraint(terms, LE, 1)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("%d two-term rows over %d variables allocated %d bytes, want < 1 MB", rows, n, grew)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic degenerate corner: multiple constraints meet at the optimum.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.addDense([]float64{1, 0}, LE, 1)
	p.addDense([]float64{0, 1}, LE, 1)
	p.addDense([]float64{1, 1}, LE, 2)
	p.addDense([]float64{2, 1}, LE, 3)
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-7 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestMixedConstraintTypes(t *testing.T) {
	// maximize 2x + 3y s.t. x + y <= 10, x >= 2, y = 3 -> x = 7, y = 3, obj 23.
	p := NewProblem(2)
	p.SetObjective([]float64{2, 3})
	p.addDense([]float64{1, 1}, LE, 10)
	p.addDense([]float64{1, 0}, GE, 2)
	p.addDense([]float64{0, 1}, EQ, 3)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-23) > 1e-7 {
		t.Fatalf("objective = %v, want 23", sol.Objective)
	}
	if math.Abs(sol.X[1]-3) > 1e-7 {
		t.Fatalf("y = %v, want 3", sol.X[1])
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective([]float64{1, 1, 1})
	p.addDense([]float64{1, 1, 0}, LE, 4)
	p.addDense([]float64{0, 1, 1}, LE, 4)
	p.addDense([]float64{1, 0, 1}, LE, 4)
	sol, err := NewRevised(p, &Options{MaxIterations: 1}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit && sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestPhase1IterationLimitIsMarkedInfeasible is the regression test for the
// silent zero-throughput bug: when phase 1 exhausts the pivot budget, the
// returned all-zero X is NOT a feasible point and the solution must say so
// (Phase 1, Feasible false) so callers cannot mistake it for a solution.
func TestPhase1IterationLimitIsMarkedInfeasible(t *testing.T) {
	// The equality row needs an artificial variable, so phase 1 must run and
	// cannot finish within a single pivot.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.addDense([]float64{1, 1}, EQ, 5)
	p.addDense([]float64{1, 0}, LE, 3)
	p.addDense([]float64{0, 1}, LE, 3)
	sol, err := NewRevised(p, &Options{MaxIterations: 1}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
	if sol.Phase != 1 {
		t.Fatalf("phase = %d, want 1", sol.Phase)
	}
	if sol.Feasible {
		t.Fatal("phase-1 limited solution marked feasible (X is all-zero and violates the equality)")
	}
}

// TestPhase2IterationLimitStaysFeasible checks the complementary contract: a
// limit hit during phase 2 still leaves a primal feasible point, which
// callers may use (the cutting-plane loop separates cuts against it).
func TestPhase2IterationLimitStaysFeasible(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective([]float64{1, 2, 3})
	p.addDense([]float64{1, 1, 0}, LE, 4)
	p.addDense([]float64{0, 1, 1}, LE, 4)
	p.addDense([]float64{1, 0, 1}, LE, 4)
	sol, err := NewRevised(p, &Options{MaxIterations: 1}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
	if sol.Phase != 2 {
		t.Fatalf("phase = %d, want 2 (pure LE problems skip phase 1)", sol.Phase)
	}
	if !sol.Feasible {
		t.Fatal("phase-2 limited solution not marked feasible")
	}
	// The point must actually satisfy the constraints.
	if sol.X[0]+sol.X[1] > 4+1e-9 || sol.X[1]+sol.X[2] > 4+1e-9 || sol.X[0]+sol.X[2] > 4+1e-9 {
		t.Fatalf("extracted X %v violates the constraints", sol.X)
	}
}

// TestOptimalSolutionsAreMarkedFeasible pins the Feasible/Phase metadata on
// the happy path.
func TestOptimalSolutionsAreMarkedFeasible(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{3, 2})
	p.addDense([]float64{1, 1}, LE, 4)
	sol := solveOK(t, p)
	if sol.Status != Optimal || !sol.Feasible || sol.Phase != 2 {
		t.Fatalf("sol = %+v, want optimal/feasible/phase-2", sol)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewProblem(0)", func() { NewProblem(0) })
	mustPanic("short objective", func() { NewProblem(2).SetObjective([]float64{1}) })
	mustPanic("bad sparse var", func() {
		NewProblem(2).AddSparseConstraint([]Term{{Var: 5, Coeff: 1}}, LE, 1)
	})
}

func TestSolveNilProblem(t *testing.T) {
	if _, err := denseSolve(nil, nil); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestSetObjectiveCoeff(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoeff(1, 5)
	p.addDense([]float64{1, 1}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-10) > 1e-7 {
		t.Fatalf("objective = %v, want 10", sol.Objective)
	}
	if p.NumVars() != 2 || p.NumConstraints() != 1 {
		t.Fatal("accessors wrong")
	}
}

// TestKnownTransportationProblem solves a small transportation LP with a
// known optimum (minimize shipping cost).
func TestKnownTransportationProblem(t *testing.T) {
	// Two supplies (10, 15), three demands (8, 7, 10).
	// Costs: s0 -> (4, 6, 8), s1 -> (5, 3, 7).
	// Variables x[s][d] flattened as s*3+d.
	p := NewProblem(6)
	p.SetObjective(Minimize([]float64{4, 6, 8, 5, 3, 7}))
	p.addDense([]float64{1, 1, 1, 0, 0, 0}, LE, 10)
	p.addDense([]float64{0, 0, 0, 1, 1, 1}, LE, 15)
	p.addDense([]float64{1, 0, 0, 1, 0, 0}, EQ, 8)
	p.addDense([]float64{0, 1, 0, 0, 1, 0}, EQ, 7)
	p.addDense([]float64{0, 0, 1, 0, 0, 1}, EQ, 10)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Optimal plan: s0 ships 8 to d0 and 2 to d2; s1 ships 7 to d1 and 8 to d2.
	// Cost = 8*4 + 2*8 + 7*3 + 8*7 = 32 + 16 + 21 + 56 = 125.
	if math.Abs(-sol.Objective-125) > 1e-6 {
		t.Fatalf("cost = %v, want 125", -sol.Objective)
	}
}

// TestBoundedBoxProperty checks a family of LPs with a known closed-form
// optimum: maximize sum(x) with per-variable bounds x_i <= b_i and a global
// budget sum(x) <= S. The optimum is min(sum(b), S).
func TestBoundedBoxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		p := NewProblem(n)
		obj := make([]float64, n)
		bounds := make([]float64, n)
		var sumB float64
		for i := range obj {
			obj[i] = 1
			bounds[i] = 0.5 + 5*rng.Float64()
			sumB += bounds[i]
			row := make([]float64, n)
			row[i] = 1
			p.addDense(row, LE, bounds[i])
		}
		p.SetObjective(obj)
		budget := 0.5 + 10*rng.Float64()
		all := make([]float64, n)
		for i := range all {
			all[i] = 1
		}
		p.addDense(all, LE, budget)
		sol, err := NewRevised(p, nil).Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		assertOptimal(t, p, sol)
		want := math.Min(sumB, budget)
		if math.Abs(sol.Objective-want) > 1e-6 {
			return false
		}
		// The solution must be feasible.
		var sum float64
		for i, x := range sol.X {
			if x < -1e-9 || x > bounds[i]+1e-6 {
				return false
			}
			sum += x
		}
		return sum <= budget+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomFeasibleLPsAreSolvedConsistently generates random LPs with <=
// constraints and non-negative right-hand sides (always feasible at the
// origin) and checks that the solver returns a feasible solution whose
// objective is at least as good as a sample of random feasible points.
func TestRandomFeasibleLPsAreSolvedConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(8)
		p := NewProblem(n)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = rng.Float64() // non-negative objective
		}
		p.SetObjective(obj)
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() // non-negative coefficients -> bounded
			}
			rows[i][rng.Intn(n)] += 0.5 // ensure at least one strictly positive entry
			rhs[i] = 1 + rng.Float64()*5
			p.addDense(rows[i], LE, rhs[i])
		}
		// Make sure every variable appears in some constraint so the problem
		// is bounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.addDense(row, LE, 10)
		}
		sol := solveOK(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Feasibility check.
		for i := 0; i < m; i++ {
			var lhs float64
			for j := 0; j < n; j++ {
				lhs += rows[i][j] * sol.X[j]
			}
			if lhs > rhs[i]+1e-6 {
				t.Fatalf("trial %d: constraint %d violated (%v > %v)", trial, i, lhs, rhs[i])
			}
		}
		// Compare against random feasible points obtained by scaling random
		// directions until all constraints hold.
		for probe := 0; probe < 20; probe++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			scale := 1.0
			for i := 0; i < m; i++ {
				var lhs float64
				for j := 0; j < n; j++ {
					lhs += rows[i][j] * x[j]
				}
				if lhs > rhs[i] {
					if s := rhs[i] / lhs; s < scale {
						scale = s
					}
				}
			}
			var val float64
			for j := range x {
				val += obj[j] * x[j] * scale
			}
			if val > sol.Objective+1e-6 {
				t.Fatalf("trial %d: random feasible point beats the optimum (%v > %v)", trial, val, sol.Objective)
			}
		}
	}
}

// TestCertifyRejectsViolatingPoints pins the dense reference's fence on
// points chosen by hand: a point is accepted when it satisfies x >= 0 and
// every row to 1e-6 relative, and rejected with errNotCertified otherwise.
func TestCertifyRejectsViolatingPoints(t *testing.T) {
	p := NewProblem(2)
	p.addDense([]float64{1, 1}, LE, 4)
	p.addDense([]float64{1, -1}, GE, -1)
	p.addDense([]float64{1e6, 0}, EQ, 2e6)
	for _, tc := range []struct {
		x  []float64
		ok bool
	}{
		{[]float64{2, 2}, true},
		{[]float64{2 + 1e-7, 2}, true}, // inside the relative tolerance of every row
		{[]float64{2, 2.1}, false},     // LE row
		{[]float64{2, 3.5}, false},     // GE row (and LE)
		{[]float64{2.001, 1}, false},   // EQ row
		{[]float64{2, -0.5}, false},    // sign
	} {
		err := p.certify(tc.x)
		if tc.ok && err != nil {
			t.Errorf("x=%v: %v, want accepted", tc.x, err)
		}
		if !tc.ok && !errors.Is(err, errNotCertified) {
			t.Errorf("x=%v: err = %v, want errNotCertified", tc.x, err)
		}
	}
}
