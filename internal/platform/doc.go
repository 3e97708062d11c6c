// Package platform defines the heterogeneous target platform of the paper:
// a directed graph of processors connected by communication links with
// affine costs, plus the broadcast-tree type produced by the heuristics.
//
// A Platform holds dense integer-identified nodes (with per-node multi-port
// send/receive overheads) and directed links (with model.AffineCost
// occupation costs), an adjacency index, and the message slice size. It is
// immutable-by-default: every subsystem that needs to modify one works on
// its own Clone. The only sanctioned mutation path is ApplyDelta — link
// bandwidth drift, link down/up, node crash/rejoin — which journals every
// delta and returns its inverse, so state can be replayed, diffed (steady
// sessions diff journal suffixes) and exactly undone. Alive/live masks
// track which nodes and links a mutated platform can still use, and
// ValidateLive checks broadcastability over the live part.
//
// Two identity notions support the planning service's cache:
//
//   - CanonicalEncoding is the exact encoding in the platform's own
//     numbering, one linear pass to produce. The service looks a request up
//     by its hash, so a repeated platform is recognised for the price of one
//     SHA-256; renumbered twins encode differently, so cached plans (whose
//     rates and trees are expressed in link/node IDs) are never served
//     across a renumbering.
//
//   - Fingerprint is the canonical content fingerprint: a
//     permutation-invariant, byte-stable SHA-256 of the platform's current
//     state, computed via Weisfeiler–Leman color refinement. Renumbering
//     nodes or links, reordering insertions, or mutating and restoring a
//     platform cannot change it; names and the journal never contribute. It
//     costs a round of hashing per refinement step, so the service computes
//     it only for a platform it has not seen: to tell a renumbered twin from
//     a new platform, and as the name delta requests address a cached
//     platform by.
//
// Tree is the spanning broadcast tree built by the heuristics; Routing the
// routed schedule of the binomial heuristic.
//
// JSON round-trips platforms byte-stably. The accepted platform grammar is
//
//	{"nodes": [{"name": string, "send": cost, "recv": cost}, ...],
//	 "links": [{"from": int, "to": int, "cost": cost}, ...],
//	 "sliceSize": number}        cost = {"latency": number, "perUnit": number}
//
// with members in any order and every one of them optional, and with the
// leniencies of decoding into a struct with encoding/json (keys match under
// case folding, unknown members are skipped, null leaves a default). It is
// read by a hand-written single-pass decoder — UnmarshalJSON, and
// DecodeMember for a platform inside a request body — that refuses what the
// solvers cannot use: a link endpoint out of range, a self loop, a negative
// or non-finite cost on a link or a node (ErrInvalidCost), a negative slice
// size (ErrSliceSize; zero or absent selects DefaultSliceSize).
package platform
