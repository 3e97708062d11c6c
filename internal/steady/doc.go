// Package steady computes the optimal steady-state broadcast throughput of
// the MTP problem (Multiple Trees, Pipelined) for a heterogeneous platform
// under the bidirectional one-port model, i.e. the value of the linear
// program (2) of Section 4.1 of the paper. This optimum serves as the
// reference ("relative performance" denominator) for every STP heuristic,
// and its per-edge message rates n(u,v) seed the LP-based heuristics.
//
// Two solvers are provided, and one certificate:
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
//     master is held in one warm-started revised-simplex handle (lp.Revised)
//     across rounds — and, in a Session, across platform mutations: after
//     round one, each re-solve prices the newly separated cut rows into the
//     previous optimal basis and re-optimizes with a few dual simplex pivots
//     instead of re-pivoting from the slack basis; a warm re-solve that
//     cannot be completed costs one cold solve. There is no other master and
//     no option that selects one.
//
//   - SolveDirect encodes LP (2) directly over the live state
//     (per-destination flow variables, |E|·|V| of them), for small platforms
//     where it cross-checks the cutting-plane solver in tests.
//
//   - Certify trusts no LP: the edge rates must carry the throughput within
//     the one-port constraints, and the final master's port prices
//     (PortDual), through one minimum-cost arborescence, must bound it from
//     above within 1e-6. Tests hold every solver and the service to it.
package steady
