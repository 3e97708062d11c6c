// Package graph provides a lightweight directed-graph substrate used by the
// broadcast-tree library: adjacency storage, traversals, reachability under
// edge subsets, shortest paths, minimum-cost arborescences, and a union-find
// structure.
//
// Nodes are dense integer identifiers in [0, N). Edges are directed and
// carry a float64 weight (in this repository the weight is the time T(u,v)
// needed to transfer one message slice across the link). The traversals
// accept an enabled-edge mask, which is how the rest of the repository asks
// graph questions about the live part of a mutated platform (dead links and
// crashed nodes are simply masked out) and about pruned subplatforms during
// heuristic construction, without copying the graph.
package graph
