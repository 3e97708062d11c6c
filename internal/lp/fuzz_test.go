package lp

import (
	"context"
	"errors"
	"math"
	"testing"
)

// fuzzMaster decodes a random feasible, bounded master LP from fuzz bytes:
// a non-negative maximization objective, per-variable box constraints
// (boundedness), and extra LE rows with mixed-sign coefficients and
// non-negative right-hand sides (the origin stays feasible, like the
// cutting-plane masters of package steady before their cut rows arrive).
func fuzzMaster(data []byte) (*Problem, []byte) {
	take := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nVars := 2 + int(take())%4 // 2..5 variables
	p := NewProblem(nVars)
	for v := 0; v < nVars; v++ {
		p.SetObjectiveCoeff(v, float64(take())/32)
		p.AddSparseConstraint([]Term{{Var: v, Coeff: 1}}, LE, 1+float64(take())/128)
	}
	extra := int(take()) % 4
	for r := 0; r < extra; r++ {
		terms := make([]Term, 0, nVars)
		for v := 0; v < nVars; v++ {
			c := float64(take())/32 - 2 // [-2, 6)
			if c != 0 {
				terms = append(terms, Term{Var: v, Coeff: c})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddSparseConstraint(terms, LE, float64(take())/64)
	}
	return p, data
}

// fuzzRow decodes one appended LE row; rows may have any-sign coefficients
// but keep a non-negative right-hand side, so the problem stays feasible.
func fuzzRow(p *Problem, data []byte) ([]Term, float64, []byte) {
	take := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	terms := make([]Term, 0, p.NumVars())
	for v := 0; v < p.NumVars(); v++ {
		c := float64(take())/32 - 2
		if c != 0 {
			terms = append(terms, Term{Var: v, Coeff: c})
		}
	}
	return terms, float64(take()) / 64, data
}

// FuzzRevisedVsDense drives the warm-started revised simplex against the cold
// dense simplex on random feasible masters: after every batch of appended
// rows, the warm re-solve and a cold dense solve of the same problem must both
// be Optimal, pass assertOptimal and agree on the objective within 1e-6 — the
// differential contract the cutting-plane solver relies on.
//
// The leading control byte steers the revised solver's corners: its low bits
// pin the refactorization trigger (exercising eta chains that end exactly on
// a refactor boundary), the high bit injects a canceled SolveContext before
// the differential check (a canceled solve must fail fast and leave the
// handle cold but consistent).
func FuzzRevisedVsDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 40, 10, 80, 20, 2, 64, 64, 64, 64, 32, 1, 30, 90, 10, 70, 16})
	f.Add([]byte{0, 3, 0, 0, 255, 255, 128, 128, 64, 64, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{0, 1, 100, 100, 100, 100, 0, 2, 90, 80, 70, 60, 50, 40, 30, 20, 10})
	// Append-row churn: several stages of appended cut rows.
	f.Add([]byte{0, 4, 30, 60, 90, 120, 20, 40, 60, 80, 2, 3, 50, 60, 70, 80, 24, 2, 10, 20, 30, 40, 12, 1, 5, 15, 25, 35, 6})
	// Cancellation mid-stream (high control bit): the canceled revised solve
	// must never poison the following differential stages.
	f.Add([]byte{0x80, 2, 40, 10, 80, 20, 1, 64, 64, 64, 64, 32, 2, 30, 90, 10, 70, 16, 40, 50, 8})
	// Refactor boundary: trigger after every pivot (interval 1) and after
	// every other pivot (interval 2).
	f.Add([]byte{0x01, 3, 20, 40, 60, 10, 30, 50, 2, 2, 64, 32, 96, 16, 3, 48, 80, 24, 8})
	f.Add([]byte{0x02, 2, 40, 10, 80, 20, 2, 64, 64, 64, 64, 32, 1, 30, 90, 10, 70, 16})
	// Dual degeneracy, where the revised dual phase runs on perturbed costs
	// (coefficient bytes 32/64/96 are −1/0/1, cost byte 32 is 1, box byte 0
	// is 1). Duplicate columns with zero and equal costs under Σx <= 1:
	f.Add([]byte{0, 3, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 2, 96, 96, 96, 96, 96, 64, 96, 96, 32, 32, 64, 0,
		0, 32, 32, 96, 96, 64, 0, 1, 64, 64, 96, 96, 96, 32, 96, 64, 96, 64, 96, 32})
	// Tied ratios: equal costs, equal boxes, 0/1 rows with equal right-hand sides.
	f.Add([]byte{0, 2, 32, 0, 32, 0, 32, 0, 32, 0, 1, 96, 96, 96, 96, 128,
		2, 96, 96, 64, 64, 64, 64, 64, 96, 96, 64, 96, 64, 96, 64, 64, 0, 96, 96, 96, 96, 64})
	// A miniature cut master: zero-cost links, one unit-cost t, rows
	// t − Σ_S x <= 0 with an exact zero right-hand side; then the same with a
	// refactorization after every pivot, so repricing sees the shifted costs.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 32, 0, 1, 32, 32, 64, 64, 96, 0,
		1, 64, 64, 32, 32, 96, 0, 32, 64, 32, 64, 96, 0, 0, 64, 32, 32, 64, 96, 0})
	f.Add([]byte{0x01, 3, 0, 0, 0, 0, 0, 0, 0, 0, 32, 0, 1, 32, 32, 64, 64, 96, 0,
		1, 64, 64, 32, 32, 96, 0, 32, 64, 32, 64, 96, 0, 0, 64, 32, 32, 64, 96, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ctrl byte
		if len(data) > 0 {
			ctrl = data[0]
			data = data[1:]
		}
		p, rest := fuzzMaster(data)
		rev := NewRevised(p, nil)
		rev.refactorInterval = int(ctrl & 0x07)
		if ctrl&0x80 != 0 {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := rev.SolveContext(ctx); !errors.Is(err, ErrCanceled) {
				t.Fatalf("pre-canceled revised solve: want ErrCanceled, got %v", err)
			}
		}

		check := func(stage int) {
			rsol, err := rev.Solve()
			if err != nil {
				t.Fatalf("stage %d: revised solve: %v", stage, err)
			}
			assertUnperturbed(t, rev)
			cold, err := denseSolve(p, nil)
			if err != nil {
				t.Fatalf("stage %d: cold solve: %v", stage, err)
			}
			if rsol.Status != Optimal || cold.Status != Optimal {
				t.Fatalf("stage %d: status revised=%v cold=%v, want Optimal (problem is feasible and bounded)",
					stage, rsol.Status, cold.Status)
			}
			assertRevisedOptimal(t, rev, rsol)
			assertOptimal(t, p, cold)
			tol := 1e-6 * math.Max(1, math.Abs(cold.Objective))
			if diff := math.Abs(rsol.Objective - cold.Objective); diff > tol {
				t.Fatalf("stage %d: revised objective %v != cold %v (diff %g)",
					stage, rsol.Objective, cold.Objective, diff)
			}
		}
		check(0)

		for stage := 1; stage <= 4 && len(rest) > 0; stage++ {
			rows := 1 + int(rest[0])%3
			rest = rest[1:]
			appended := false
			for r := 0; r < rows; r++ {
				var terms []Term
				var rhs float64
				terms, rhs, rest = fuzzRow(p, rest)
				if len(terms) == 0 {
					continue
				}
				p.AddSparseConstraint(terms, LE, rhs)
				appended = true
			}
			if !appended {
				continue
			}
			check(stage)
		}
	})
}
