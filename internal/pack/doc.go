// Package pack decomposes the optimal edge rates of a steady-state
// broadcast solution into an explicit weighted packing of spanning
// broadcast trees — the primal witness of the paper's Section 4.1 theorem
// that the LP throughput TP is achieved by a convex combination of
// broadcast trees, not by any single tree.
//
// The decomposition runs in two deterministic phases:
//
//  1. Peel: greedy flow-style extraction. A max-bottleneck arborescence
//     (Prim-style widest-path growth, ties broken by smallest link ID) is
//     repeatedly peeled out of the residual rate graph with weight equal to
//     its bottleneck residual capacity, saturating at least one support
//     edge per round, until the residual support no longer carries an
//     arborescence or TP is exhausted.
//
//  2. Certify: restricted-master column generation. The restricted master
//     — maximize the total weight of the trees found so far, the summed
//     weights on each edge staying within the solution's rate n(u,v) — is
//     held as its dual on one warm lp.Revised handle for the whole
//     decomposition:
//
//     minimize Σ_e n(e)·y(e)  subject to  Σ_{e∈T} y(e) >= 1 per tree T,  y >= 0.
//
//     Why the dual: a column of the master is a row there. A newly priced
//     tree is one appended row, re-optimized by a few dual simplex pivots
//     from the previous basis — the row-append path the cutting-plane
//     solver lives on — where the primal would need a column-append path
//     the LP layer does not have. The basis core is as large as the number
//     of binding trees, not the support. Everything pricing needs
//     falls out of that one LP: the y(e) are the edge prices, read as the
//     solution itself; the optimal value is the master's; and the tree
//     weights are the row multipliers (lp.Revised.Duals), read once, after
//     the last round.
//
//     Each round prices a min-cost arborescence under y (Chu-Liu/Edmonds,
//     deterministic tie-breaks, on buffers kept across rounds). A tree
//     whose cost is below 1 enters as a new row; when none exists, LP
//     duality certifies the packing value is the maximum achievable within
//     the rate graph, which Edmonds' arborescence-packing theorem puts at
//     min-cut value — i.e. at TP itself.
//
// The stop rule is progress, not a round count: column generation goes on
// while the master value still rises, a degenerate master being allowed a
// plateau that scales with the support (stallRounds), under a hard ceiling
// that is a constant of the package (maxRounds). Every exit short of TP —
// the ceiling, a stall, the dual certificate, a priced column the master
// already holds — is named in the ErrNotPacked it produces.
//
// The result is a steady.Packing whose combined rate matches the LP
// throughput within solver tolerance (far inside the 1e-6 contract pinned
// by the differential tests) while never exceeding any per-edge rate or
// one-port occupation bound the LP certified. It also records what the
// decomposition cost — rounds, master pivots, wall — outside its JSON.
//
// Everything in this package is deterministic: no randomness, no map-order
// dependence, and no wall clock beyond the one marked timing of Decompose
// itself, which never reaches a marshaled byte (enforced by the detrand
// analyzer — the package is in bcast-lint's deterministic scope). Equal
// inputs produce byte-identical packings on every run and worker count.
//
// The primal master survives in the tests as the oracle: rebuilt from
// scratch and cold-solved on the dense tableau after every round, it must
// agree with the dual master's value on the same tree set.
package pack
