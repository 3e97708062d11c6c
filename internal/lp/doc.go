// Package lp implements a simplex solver for linear programs in the form
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
// Revised is the solver, and the only LP code path: the revised simplex
// with a maintained basis factorization, a resolvable handle for the
// cutting-plane pattern. After an Optimal solve, newly appended constraint
// rows are priced into the previous optimal basis and re-optimized with dual
// simplex pivots, skipping phase 1 entirely. The basis is split into logical
// singleton columns and a structural core factored by a sparse left-looking
// LU (Gilbert-Peierls) with partial pivoting; pivots run FTRAN/BTRAN through
// the factorization plus an eta file and refactorize on update-count, growth
// and staleness triggers. Warm re-solves after appends and objective changes
// are allocation-free in steady state (see NewRevised, SolveStats and
// FactorStats). There is no fallback solver: a cold solve that fails
// numerically returns an error wrapping ErrNumerical.
//
// A cold solve starts from the slack basis unless Revised.Crash seeded it
// with a crash basis (Bixby, ORSA J. Computing 1992): structural columns
// basic in the rows the caller names, in place of those rows' logicals. A
// crash basis that is singular or primal infeasible is rejected, counted in
// SolveStats.CrashRejects, and the solve starts from the slack basis. Package
// steady seeds every fresh cut master with one built from a spanning tree of
// the platform, which is primal feasible by construction.
//
// Rows are sparse: Problem.AddSparseConstraint is the one way to add a
// constraint, and it stores the row's nonzero terms only (a repeated
// variable's coefficients summed, exact zeros dropped), so a row costs
// memory in proportion to its terms, not to NumVars.
//
// The package's tests hold Revised to a dense two-phase tableau simplex kept
// in the test files as the in-package reference (agreement within 1e-6
// relative, pinned by the FuzzRevisedVsDense fuzz target) and check the
// Karush–Kuhn–Tucker conditions of every optimal solve.
//
// Degeneracy: a cutting-plane master is massively dual degenerate (every
// unused link prices to a reduced cost of exactly zero), and an unperturbed
// dual simplex spends its whole warm budget on zero-length steps. Revised
// therefore runs each dual phase on perturbed costs: every nonbasic column
// j is made cheaper by a distinct δ_j in [1e-6, 2e-6), a fixed hash of j —
// no random source, the same pivots on every run — so every step has
// positive length and the dual objective falls strictly. The shift is dropped
// when the dual phase ends; the primal polish, the certificate and
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
// Revised supports cooperative cancellation through SolveContext; a
// canceled solve reports ErrCanceled and never leaves a reusable warm
// basis behind.
package lp
