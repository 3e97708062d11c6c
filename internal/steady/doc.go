// Package steady computes the optimal steady-state broadcast throughput of
// the MTP problem (Multiple Trees, Pipelined) for a heterogeneous platform
// under the bidirectional one-port model, i.e. the value of the linear
// program (2) of Section 4.1 of the paper. This optimum serves as the
// reference ("relative performance" denominator) for every STP heuristic,
// and its per-edge message rates n(u,v) seed the LP-based heuristics.
//
// Two solvers are provided:
//
//   - Solve uses a cutting-plane decomposition: by max-flow/min-cut duality,
//     the projection of LP (2) onto the edge rates n and the throughput TP
//     is exactly {per-node one-port occupation constraints} together with
//     {for every destination w and every source→w cut C: Σ_{e∈C} n_e ≥ TP}.
//     A small master LP over (n, TP) is solved repeatedly, violated cuts
//     being separated with a max-flow computation per destination — each
//     bounded by the violation threshold it is compared with, on a
//     session-owned network, so that a separation sweep allocates only for
//     the cuts it adds (see "Cut separation" in docs/ARCHITECTURE.md). The
//     master is held in one warm-started incremental solver (lp.Incremental)
//     across rounds: after round one, each re-solve prices the newly
//     separated cut rows into the previous optimal basis and re-optimizes
//     with a few dual simplex pivots instead of rebuilding the tableau and
//     re-pivoting from the slack basis. Options.ColdStart restores the
//     historical re-solve-from-scratch behavior (it also serves as the
//     differential-testing oracle), and the loop falls back to a cold solve
//     on its own whenever a warm re-solve cannot be completed.
//
//   - SolveDirect encodes LP (2) directly (per-destination flow variables);
//     its size grows as |E|·|V| so it is only practical for small platforms,
//     where it cross-checks the cutting-plane solver in tests. It is solved
//     on lp.Revised (the dense tableau pivots on round-off on this LP's
//     all-zero right-hand sides), and the point is certified against the
//     model before it is reported; a point that fails is ErrLPFailed, never
//     a throughput.
package steady
