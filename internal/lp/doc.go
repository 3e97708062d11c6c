// Package lp implements simplex solvers for linear programs in the form
//
//	maximize    c·x
//	subject to  a_i·x {<=, =, >=} b_i   for every constraint i
//	            x >= 0
//
// It replaces the Maple/MuPAD LP solver the paper uses to compute the
// optimal steady-state broadcast throughput (Section 4.1), sized for the
// master problems produced by the cutting-plane decomposition in package
// steady (a few hundred variables, up to thousands of cut rows).
//
// Two solvers are provided, held to one differential contract (agreement
// within 1e-6 relative, pinned by the FuzzRevisedVsDense fuzz target and the
// registry-wide steady tiers):
//
//   - Revised is the solver: the revised simplex with a maintained basis
//     factorization, a resolvable handle for the cutting-plane pattern. After
//     an Optimal solve, newly appended constraint rows are priced into the
//     previous optimal basis and re-optimized with dual simplex pivots,
//     skipping phase 1 entirely. The basis is split into logical singleton
//     columns and a structural core factored by a sparse left-looking LU
//     (Gilbert-Peierls) with partial pivoting; pivots run FTRAN/BTRAN through
//     the factorization plus an eta file and refactorize on update-count,
//     growth and staleness triggers (Options.RefactorInterval tunes the
//     update-count trigger). Warm re-solves after appends and objective
//     changes are allocation-free in steady state (see NewRevised, SolveStats
//     and FactorStats).
//
//   - Solve performs a one-shot cold solve from the slack basis with the
//     dense two-phase primal simplex (Dantzig pricing, Bland anti-cycling
//     fallback). Every pivot touches the whole tableau, which caps it at
//     moderate sizes; it is the oracle Revised is measured against and the
//     fallback of last resort when a cold revised solve fails numerically.
//     The point it ends on is checked against the problem's own constraints
//     (1e-6 relative) before it is reported: on massively degenerate problems
//     the dense ratio test can pivot on round-off and end "optimal" outside
//     the feasible region, which surfaces as ErrNotCertified, never as a
//     Solution.
//
// Degeneracy: a cutting-plane master is massively dual degenerate (every
// unused link prices to a reduced cost of exactly zero), and an unperturbed
// dual simplex spends its whole warm budget on zero-length steps. Revised
// therefore runs each dual phase on perturbed costs: every nonbasic column
// j is made cheaper by a distinct δ_j in [1e-6, 2e-6), a fixed hash of j —
// no random source, the same pivots on every run — so every step has
// positive length and the dual objective falls strictly. The shift is dropped
// when the dual phase ends; the primal polish, the residual certificate and
// Duals all run on the costs as given, so the optimum is exact, not
// approximate. A warm attempt that fails all the same (its pivot budget, a
// singular refactorization) costs one cold solve, and the next solve tries
// warm again: there is no warm-disable latch.
//
// Duals: a cold Optimal solve reports them in Solution.Dual. A warm re-solve
// does not compute them — the cutting-plane loop never reads them — and
// Revised.Duals derives them from the basis the solve left behind when a
// caller asks: every stored row is a signed copy of one constraint (appended
// GE rows are negated, EQ rows split into a signed pair), so a constraint's
// dual is the signed sum of its rows' simplex multipliers. That is what lets
// package pack hold its column-generation master as the dual LP on one
// handle, a new column being one appended row.
//
// Both solvers support cooperative cancellation through SolveContext; a
// canceled solve reports ErrCanceled and never leaves a reusable warm
// basis behind.
package lp
