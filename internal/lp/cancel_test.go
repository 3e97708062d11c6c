package lp

import (
	"context"
	"errors"
	"math"
	"testing"
)

// cancelProblem builds a small LP with a non-trivial pivot sequence:
// maximize x0+x1 subject to a few overlapping capacity rows.
func cancelProblem() *Problem {
	p := NewProblem(3)
	p.SetObjective([]float64{1, 1, 0.5})
	p.addDense([]float64{1, 2, 1}, LE, 4)
	p.addDense([]float64{2, 1, 0}, LE, 3)
	p.addDense([]float64{0, 1, 2}, LE, 5)
	return p
}

func TestSolveContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := denseSolveContext(ctx, cancelProblem(), nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveContext on canceled ctx = %v, want ErrCanceled", err)
	}
}

func TestSolveContextNilAndBackground(t *testing.T) {
	// nil ctx must behave like context.Background(): solve normally.
	sol, err := denseSolveContext(nil, cancelProblem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	ref, err := denseSolve(cancelProblem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-ref.Objective) > 1e-9 {
		t.Fatalf("nil-ctx objective %v != Solve objective %v", sol.Objective, ref.Objective)
	}
}

// TestRevisedCanceledThenResolves cancels a warm re-solve and verifies the
// handle recovers: the canceled attempt must not leave a mid-pivot basis
// behind, and the next (uncanceled) Solve must match a cold dense oracle.
func TestRevisedCanceledThenResolves(t *testing.T) {
	p := cancelProblem()
	rv := NewRevised(p, nil)
	first, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Optimal {
		t.Fatalf("initial status %v", first.Status)
	}

	// A cutting row that shaves the optimum, solved under a dead context.
	rv.p.addDense([]float64{1, 1, 1}, LE, first.Objective*0.9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rv.SolveContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled SolveContext = %v, want ErrCanceled", err)
	}

	sol, err := rv.Solve()
	if err != nil {
		t.Fatalf("re-solve after cancellation: %v", err)
	}
	assertRevisedOptimal(t, rv, sol)
	oracle, err := denseSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-oracle.Objective) > 1e-9 {
		t.Fatalf("post-cancel solve %v/%v, oracle %v", sol.Status, sol.Objective, oracle.Objective)
	}
	if rv.Stats().ColdSolves < 2 {
		t.Errorf("stats %+v: the canceled basis should have forced a cold re-solve", rv.Stats())
	}
}
