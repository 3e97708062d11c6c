package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkDuals verifies strong duality (c·x == y·b) and complementary
// slackness for a solved problem whose constraints are given as rows.
func checkDuals(t *testing.T, sol *Solution, obj []float64, rows [][]float64, rels []Relation, rhs []float64) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if len(sol.Dual) != len(rows) {
		t.Fatalf("got %d duals, want %d", len(sol.Dual), len(rows))
	}
	// Strong duality: the primal objective equals y·b.
	var yb float64
	for i, y := range sol.Dual {
		yb += y * rhs[i]
	}
	if math.Abs(yb-sol.Objective) > 1e-7 {
		t.Fatalf("strong duality violated: y·b = %v, objective = %v", yb, sol.Objective)
	}
	// Dual feasibility on the structural variables: for a maximization,
	// yᵀA_j >= c_j for every variable j (equality when x_j > 0).
	for j := range obj {
		var ya float64
		for i, row := range rows {
			ya += sol.Dual[i] * row[j]
		}
		if ya < obj[j]-1e-7 {
			t.Errorf("dual infeasible at var %d: yᵀA_j = %v < c_j = %v", j, ya, obj[j])
		}
		if sol.X[j] > 1e-9 && math.Abs(ya-obj[j]) > 1e-7 {
			t.Errorf("complementary slackness violated at var %d: x = %v, yᵀA_j - c_j = %v", j, sol.X[j], ya-obj[j])
		}
	}
	// Complementary slackness on the rows: a slack constraint has zero dual.
	for i, row := range rows {
		var ax float64
		for j, v := range row {
			ax += v * sol.X[j]
		}
		slack := rhs[i] - ax
		if rels[i] == GE {
			slack = ax - rhs[i]
		}
		if slack > 1e-7 && math.Abs(sol.Dual[i]) > 1e-7 {
			t.Errorf("row %d is slack (%v) but has dual %v", i, slack, sol.Dual[i])
		}
	}
}

func TestDualsSimpleLE(t *testing.T) {
	// maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6. Optimum (4, 0) with
	// only the first row tight, so y = (3, 0).
	obj := []float64{3, 2}
	rows := [][]float64{{1, 1}, {1, 3}}
	rels := []Relation{LE, LE}
	rhs := []float64{4, 6}
	p := NewProblem(2)
	p.SetObjective(obj)
	for i, r := range rows {
		p.addDense(r, rels[i], rhs[i])
	}
	sol := solveOK(t, p)
	checkDuals(t, sol, obj, rows, rels, rhs)
	// This instance is non-degenerate with a unique dual: y = (3, 0).
	if math.Abs(sol.Dual[0]-3) > 1e-7 || math.Abs(sol.Dual[1]-0) > 1e-7 {
		t.Fatalf("duals = %v, want [3 0]", sol.Dual)
	}
}

func TestDualsMixedRelations(t *testing.T) {
	// maximize x + y s.t. x + y <= 10, x >= 2, x + 2y == 12.
	obj := []float64{1, 1}
	rows := [][]float64{{1, 1}, {1, 0}, {1, 2}}
	rels := []Relation{LE, GE, EQ}
	rhs := []float64{10, 2, 12}
	p := NewProblem(2)
	p.SetObjective(obj)
	for i, r := range rows {
		p.addDense(r, rels[i], rhs[i])
	}
	sol := solveOK(t, p)
	checkDuals(t, sol, obj, rows, rels, rhs)
}

func TestDualsFlippedRow(t *testing.T) {
	// A negative right-hand side forces the solver to negate the row;
	// -x - y <= -3 is x + y >= 3. maximize -x - 2y s.t. -x - y <= -3.
	// Optimum x=3, y=0, objective -3; dObj/drhs for the row as given is +1
	// (relaxing -3 toward -2 raises the objective by 1).
	obj := []float64{-1, -2}
	rows := [][]float64{{-1, -1}}
	rels := []Relation{LE}
	rhs := []float64{-3}
	p := NewProblem(2)
	p.SetObjective(obj)
	p.addDense(rows[0], rels[0], rhs[0])
	sol := solveOK(t, p)
	checkDuals(t, sol, obj, rows, rels, rhs)
	if math.Abs(sol.Dual[0]-1) > 1e-7 {
		t.Fatalf("flipped-row dual = %v, want 1", sol.Dual[0])
	}
}

func TestDualsAbsentOffOptimal(t *testing.T) {
	// An unbounded problem must not report duals.
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.addDense([]float64{-1}, LE, 1)
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
	if sol.Dual != nil {
		t.Fatalf("unbounded solve reported duals %v", sol.Dual)
	}
}

// warmDualCase is a random bounded LP grown in batches around a strictly
// positive point x0 that every row keeps feasible: box rows first (the cold
// solve), then batches of LE, GE and EQ rows with mixed-sign coefficients,
// whose right-hand sides — a·x0 plus, minus or without slack — come out
// negative about as often as positive.
//
// A degenerate case is built to tie the dual ratio test: costs are 0, 1 or 2
// (a third of them zero), about one column in three is an exact duplicate of
// its left neighbour (same cost, same coefficient in every row, one shared
// box row), coefficients are −1, 0 or 1, x0 is integral and half the rows
// are tight at x0, so reduced costs and ratios coincide exactly instead of
// almost never.
type warmDualCase struct {
	obj     []float64
	x0      []float64
	rows    [][]float64
	rels    []Relation
	rhs     []float64
	batches [][2]int // row ranges [from, to) appended before each solve
}

func newWarmDualCase(rng *rand.Rand, nVars, nBatches int, degenerate bool) *warmDualCase {
	c := &warmDualCase{obj: make([]float64, nVars), x0: make([]float64, nVars)}
	dupOf := make([]int, nVars) // the column this one duplicates, itself otherwise
	for j := range c.obj {
		dupOf[j] = j
		switch {
		case !degenerate:
			c.obj[j] = rng.Float64()*4 - 1
			c.x0[j] = 0.5 + rng.Float64()*2
		case j > 0 && rng.Intn(3) == 0:
			dupOf[j] = dupOf[j-1]
			c.obj[j] = c.obj[j-1]
			c.x0[j] = float64(1 + rng.Intn(2))
		default:
			c.obj[j] = float64(rng.Intn(3))
			c.x0[j] = float64(1 + rng.Intn(2))
		}
	}
	add := func(row []float64, rel Relation, slack float64) {
		var ax float64
		for j := range row {
			row[j] = row[dupOf[j]]
			ax += row[j] * c.x0[j]
		}
		switch rel {
		case LE:
			ax += slack
		case GE:
			ax -= slack
		}
		c.rows, c.rels, c.rhs = append(c.rows, row), append(c.rels, rel), append(c.rhs, ax)
	}
	coeff := func() float64 {
		if degenerate {
			return float64(rng.Intn(3) - 1)
		}
		return rng.Float64()*4 - 2
	}
	slack := func(scale float64) float64 {
		if degenerate {
			return float64(rng.Intn(2))
		}
		return scale * rng.Float64()
	}
	for j := 0; j < nVars; j++ {
		if dupOf[j] != j {
			continue // shares its original's box row
		}
		row := make([]float64, nVars)
		row[j] = 1
		add(row, LE, 1+slack(3))
	}
	c.batches = append(c.batches, [2]int{0, len(c.rows)})
	for b := 0; b < nBatches; b++ {
		from := len(c.rows)
		for r := 1 + rng.Intn(4); r > 0; r-- {
			row := make([]float64, nVars)
			for j := range row {
				if rng.Intn(3) > 0 {
					row[j] = coeff()
				}
			}
			switch rng.Intn(5) {
			case 0:
				add(row, EQ, 0)
			case 1, 2:
				add(row, GE, slack(2))
			default:
				add(row, LE, slack(2))
			}
		}
		c.batches = append(c.batches, [2]int{from, len(c.rows)})
	}
	return c
}

// TestRevisedWarmDuals is the property tier of Revised.Duals: after every
// append batch — LE rows, GE rows (stored negated), EQ rows (stored as a
// signed pair), negative right-hand sides among all three — the duals read
// off the warm basis satisfy strong duality, dual feasibility, complementary
// slackness and the sign each relation dictates, against the problem as
// given, and the objective they certify is the one a cold dense solve of the
// same problem finds. A twin handle that is never asked for duals must move
// in lockstep: same pivots, same point, bit for bit.
//
// The second half of the trials are dual-degenerate by construction (see
// warmDualCase): there the dual phase runs on perturbed costs, and all of the
// above must hold against the costs as given — the perturbation may decide
// which optimal basis the solve ends on, never what it reports.
func TestRevisedWarmDuals(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	warmChecked, degenerateWarm, negRHS, byRel := 0, 0, 0, map[Relation]int{}
	for trial := 0; trial < 240; trial++ {
		degenerate := trial >= 120
		c := newWarmDualCase(rng, 2+rng.Intn(7), 1+rng.Intn(6), degenerate)
		asked, silent := NewProblem(len(c.obj)), NewProblem(len(c.obj))
		asked.SetObjective(c.obj)
		silent.SetObjective(c.obj)
		rvAsked, rvSilent := NewRevised(asked, nil), NewRevised(silent, nil)
		for bi, batch := range c.batches {
			for i := batch[0]; i < batch[1]; i++ {
				rvAsked.p.addDense(c.rows[i], c.rels[i], c.rhs[i])
				rvSilent.p.addDense(c.rows[i], c.rels[i], c.rhs[i])
			}
			sol, err := rvAsked.Solve()
			if err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, bi, err)
			}
			twin, err := rvSilent.Solve()
			if err != nil {
				t.Fatalf("trial %d batch %d (twin): %v", trial, bi, err)
			}
			if twin.Iterations != sol.Iterations || rvSilent.LastWarm() != rvAsked.LastWarm() || !reflect.DeepEqual(twin.X, sol.X) {
				t.Fatalf("trial %d batch %d: reading duals moved the next solve: %d pivots (warm=%v) x=%v, twin %d pivots (warm=%v) x=%v",
					trial, bi, sol.Iterations, rvAsked.LastWarm(), sol.X, twin.Iterations, rvSilent.LastWarm(), twin.X)
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d batch %d: status %v on a problem feasible at x0 inside a box", trial, bi, sol.Status)
			}
			assertUnperturbed(t, rvAsked)
			n := batch[1]
			duals := rvAsked.Duals()
			if len(duals) != n {
				t.Fatalf("trial %d batch %d: %d duals for %d constraints", trial, bi, len(duals), n)
			}
			if again := rvAsked.Duals(); &again[0] != &duals[0] {
				t.Fatalf("trial %d batch %d: a second Duals call recomputed", trial, bi)
			}
			withDuals := *sol
			withDuals.Dual = duals
			checkDuals(t, &withDuals, c.obj, c.rows[:n], c.rels[:n], c.rhs[:n])
			assertOptimal(t, asked, &withDuals)
			for i, y := range duals {
				if c.rels[i] == LE && y < -1e-7 || c.rels[i] == GE && y > 1e-7 {
					t.Errorf("trial %d batch %d: row %d (%v) has dual %v of the wrong sign", trial, bi, i, c.rels[i], y)
				}
			}
			cold := NewProblem(len(c.obj))
			cold.SetObjective(c.obj)
			for i := 0; i < n; i++ {
				cold.addDense(c.rows[i], c.rels[i], c.rhs[i])
			}
			ref := denseOK(t, cold)
			if ref.Status != Optimal || math.Abs(ref.Objective-sol.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
				t.Fatalf("trial %d batch %d: warm objective %v, cold dense %v (%v)", trial, bi, sol.Objective, ref.Objective, ref.Status)
			}
			if rvAsked.LastWarm() {
				warmChecked++
				if degenerate && sol.Iterations > 0 {
					degenerateWarm++
				}
				for i := batch[0]; i < batch[1]; i++ {
					byRel[c.rels[i]]++
					if c.rhs[i] < 0 {
						negRHS++
					}
				}
			} else if sol.Dual == nil || &sol.Dual[0] != &duals[0] {
				t.Fatalf("trial %d batch %d: Duals after a cold solve is not Solution.Dual", trial, bi)
			}
		}
	}
	// The property is vacuous unless warm re-solves with every row kind were
	// among the checked ones.
	if warmChecked < 400 || degenerateWarm < 100 || byRel[LE] < 200 || byRel[GE] < 200 || byRel[EQ] < 100 || negRHS < 100 {
		t.Fatalf("coverage too thin: %d warm solves (%d degenerate ones that pivoted), rows %v, %d with negative rhs",
			warmChecked, degenerateWarm, byRel, negRHS)
	}
}

// TestRevisedDualsAbsentOffOptimal a handle whose last solve did not end
// Optimal has no duals to give, whatever an earlier solve left behind.
func TestRevisedDualsAbsentOffOptimal(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	rv := NewRevised(p, nil)
	if rv.Duals() != nil {
		t.Fatal("unsolved handle reported duals")
	}
	rv.p.addDense([]float64{1}, LE, 2)
	if sol, err := rv.Solve(); err != nil || sol.Status != Optimal || len(rv.Duals()) != 1 {
		t.Fatalf("bounded solve: %+v, %v, duals %v", sol, err, rv.Duals())
	} else {
		assertRevisedOptimal(t, rv, sol)
	}
	rv.p.addDense([]float64{1}, GE, 3)
	sol, err := rv.Solve()
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("x <= 2 with x >= 3: %+v, %v, want infeasible", sol, err)
	}
	if d := rv.Duals(); d != nil {
		t.Fatalf("infeasible solve reported duals %v", d)
	}
}
