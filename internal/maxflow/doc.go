// Package maxflow implements Dinic's maximum-flow algorithm on networks
// with float64 capacities, together with minimum-cut extraction. It is the
// separation oracle of the cutting-plane solver in package steady: the
// steady-state broadcast LP requires that, for every destination, the edge
// rates support a flow of value TP from the source, which by max-flow /
// min-cut duality is equivalent to every source-destination cut having
// capacity at least TP.
//
// The solver decides every destination every cutting-plane round — one
// chained flow, moved from destination to destination, certifies the ones
// whose cuts all hold, and a fresh bounded flow per remaining destination
// finds the minimum cuts of the violated ones — so the kernel is built for
// that loop:
//
//   - The residual network is a pair of arc arrays (arc 2k is user edge k,
//     arc 2k+1 its reverse) under a CSR adjacency index that lists each
//     node's arcs in AddEdge order. The index is rebuilt lazily after
//     AddEdge; residual capacities live in the arc arrays and survive it.
//   - Each phase labels nodes with their residual distance to the sink,
//     breadth first from the sink, and stops the moment the source is
//     labeled. The blocking flow is one iterative depth-first search that,
//     after an augmentation, resumes at the tail of the first arc the push
//     saturated. Labeling from the sink admits exactly the arcs that lie on
//     shortest source-sink paths, so the search finds the augmenting paths a
//     textbook forward-labeled Dinic finds, in the same order, and never
//     enters a subtree that cannot reach the sink; flows, per-edge flows and
//     minimum cuts are bit-identical to that reference, which is kept in the
//     package's tests as the oracle of a differential and fuzz tier.
//   - MaxFlowBounded stops once the flow value reaches a bound, for callers
//     that only compare the value with a threshold. It never shrinks an
//     augmentation to fit the bound — it only declines to look for the next
//     one — so a result below the bound is the exact maximum flow with valid
//     minimum cuts, and any other result is the bound itself. Minimum cuts
//     are refused (panic) after a flow that stopped on its bound.
//   - Reroute moves the sink of the flow the network holds: it pushes
//     exactly an amount more from the old sink to a new one, with the same
//     phases and the last augmentation capped to land on the amount (an
//     overshoot would have to come from the old sink, which holds only what
//     it was sent). A source-to-prev flow plus a prev-to-w flow of the same
//     value in its residual network is a source-to-w flow of that value, so
//     one flow certifies a whole sequence of sinks; minimum cuts are refused
//     after a Reroute.
//   - Nothing on the flow path allocates once the handle is warm: queue,
//     labels and path are handle-owned, Reset undoes only the edges the
//     flows since the previous Reset pushed through, and the
//     MinCut*SideInto variants write into caller buffers.
//
// Capacities below eps (1e-12) count as zero throughout: an arc with that
// little residual is saturated, for the search and for the cuts alike.
// Capacities must be finite; negative and NaN capacities are clamped to
// zero.
package maxflow
