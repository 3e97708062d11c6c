package service

import (
	"context"
	"fmt"
	"math"

	"repro/internal/platform"
)

// ConcurrentSource is one broadcast of a concurrent-broadcast request.
type ConcurrentSource struct {
	// Source is the broadcast source processor.
	Source int `json:"source"`
	// Share is the fraction of the platform's port capacity granted to this
	// broadcast (0 < Share, sum over sources <= 1). Zero everywhere means
	// equal shares 1/len(sources).
	Share float64 `json:"share,omitempty"`
}

// ConcurrentRequest asks for a concurrent-broadcast plan: several sources
// broadcasting on the SAME platform at the same time, splitting the one-port
// and link capacities by explicit shares. The steady-state LP is positively
// homogeneous — scaling every rate of a full-capacity solution by f keeps
// every occupation constraint satisfied with budget f — so each source's
// broadcast runs at exactly share x (its solo optimal throughput), and the
// shared-capacity accounting below is exact rather than heuristic.
type ConcurrentRequest struct {
	// Platform is the platform shared by all broadcasts.
	Platform *platform.Platform `json:"platform"`
	// Sources are the concurrent broadcasts (at least one; sources must be
	// distinct alive nodes).
	Sources []ConcurrentSource `json:"sources"`
	// Heuristic and Trees are forwarded to every per-source plan (see
	// PlanRequest). Trees > 0 additionally packs each broadcast into at most
	// Trees weighted trees.
	Heuristic string `json:"heuristic,omitempty"`
	Trees     int    `json:"trees,omitempty"`
	// DeadlineMs bounds each per-source solve (see PlanRequest.DeadlineMs).
	DeadlineMs int `json:"deadlineMs,omitempty"`
	// Workers bounds the per-source solves running concurrently (0 = one
	// lane per source, capped by the engine's worker pool).
	Workers int `json:"workers,omitempty"`
}

// ConcurrentBroadcast is the outcome of one source's broadcast within a
// concurrent plan.
type ConcurrentBroadcast struct {
	// Source and Share echo the request (Share defaulted when the request
	// left it zero).
	Source int     `json:"source"`
	Share  float64 `json:"share"`
	// Throughput is the broadcast's steady-state rate under its share:
	// Share x the source's solo optimal throughput.
	Throughput float64 `json:"throughput"`
	// SoloThroughput is the source's full-capacity optimal throughput.
	SoloThroughput float64 `json:"soloThroughput"`
	// PackedThroughput is Share x the packed throughput (only when the
	// request asked for tree packing).
	PackedThroughput float64 `json:"packedThroughput,omitempty"`
	// Cached reports that the per-source plan came from the engine cache.
	Cached bool `json:"cached"`
	// Plan is the source's full-capacity plan (edge rates, packing, ...);
	// its rates scale by Share within the concurrent schedule.
	Plan *Plan `json:"plan"`
}

// ConcurrentPlan is a complete concurrent-broadcast schedule.
type ConcurrentPlan struct {
	Nodes int `json:"nodes"`
	Links int `json:"links"`
	// Broadcasts are the per-source outcomes, in request order.
	Broadcasts []ConcurrentBroadcast `json:"broadcasts"`
	// TotalThroughput is the sum of the per-broadcast throughputs.
	TotalThroughput float64 `json:"totalThroughput"`
	// MaxInOccupation and MaxOutOccupation are the worst per-node one-port
	// occupations under the combined share-scaled rates of all broadcasts
	// (<= 1 + tolerance by construction; the ledger recomputes them from
	// the actual rates as a safety check rather than trusting the algebra).
	MaxInOccupation  float64 `json:"maxInOccupation"`
	MaxOutOccupation float64 `json:"maxOutOccupation"`
}

// concurrentShareTol absorbs float noise when validating that the shares
// sum to at most 1 and when checking the combined occupation ledger.
const concurrentShareTol = 1e-9

// Concurrent plans concurrent broadcasts from several sources on one
// platform. See ConcurrentContext.
func (e *Engine) Concurrent(req ConcurrentRequest) (*ConcurrentPlan, error) {
	return e.ConcurrentContext(context.Background(), req)
}

// ConcurrentContext admits multiple broadcast sources onto one platform:
// each source is planned at full capacity (through the regular plan path,
// so caching, admission control and deadlines all apply), then scaled by
// its share. The combined schedule is validated against the shared one-port
// capacities — every node's total incoming and outgoing occupation across
// ALL broadcasts must stay within 1 — and the worst occupations are
// reported. The result is deterministic for a given request, whatever
// Workers is: per-source plans land in request order and each solve is
// itself deterministic.
func (e *Engine) ConcurrentContext(ctx context.Context, req ConcurrentRequest) (*ConcurrentPlan, error) {
	if req.Platform == nil {
		return nil, ErrNoPlatform
	}
	if len(req.Sources) == 0 {
		return nil, fmt.Errorf("%w: concurrent request has no sources", ErrBadRequest)
	}
	p := req.Platform
	shares := make([]float64, len(req.Sources))
	sum := 0.0
	seen := make(map[int]bool, len(req.Sources))
	for i, cs := range req.Sources {
		if cs.Source < 0 || cs.Source >= p.NumNodes() {
			return nil, fmt.Errorf("%w: source %d out of range", ErrBadRequest, cs.Source)
		}
		if seen[cs.Source] {
			return nil, fmt.Errorf("%w: duplicate source %d", ErrBadRequest, cs.Source)
		}
		seen[cs.Source] = true
		if cs.Share < 0 || math.IsNaN(cs.Share) || math.IsInf(cs.Share, 0) {
			return nil, fmt.Errorf("%w: source %d has invalid share %v", ErrBadRequest, cs.Source, cs.Share)
		}
		shares[i] = cs.Share
		sum += cs.Share
	}
	if sum == 0 {
		for i := range shares {
			shares[i] = 1 / float64(len(shares))
		}
	} else {
		for i, s := range shares {
			if s == 0 {
				return nil, fmt.Errorf("%w: source %d has zero share while others are explicit", ErrBadRequest, req.Sources[i].Source)
			}
		}
		if sum > 1+concurrentShareTol {
			return nil, fmt.Errorf("%w: shares sum to %v, exceeding the platform capacity", ErrBadRequest, sum)
		}
	}

	reqs := make([]PlanRequest, len(req.Sources))
	for i, cs := range req.Sources {
		reqs[i] = PlanRequest{
			Platform:   p,
			Source:     cs.Source,
			Heuristic:  req.Heuristic,
			Trees:      req.Trees,
			DeadlineMs: req.DeadlineMs,
		}
	}
	workers := req.Workers
	if workers <= 0 {
		workers = len(reqs)
	}
	outcomes := e.PlanEachContext(ctx, reqs, workers)

	cp := &ConcurrentPlan{
		Nodes:      p.NumNodes(),
		Links:      p.NumLinks(),
		Broadcasts: make([]ConcurrentBroadcast, len(outcomes)),
	}
	combined := make([]float64, p.NumLinks())
	for i, out := range outcomes {
		if out.Error != "" {
			return nil, fmt.Errorf("service: concurrent source %d: %s", req.Sources[i].Source, out.Error)
		}
		plan := out.Result.Plan
		b := ConcurrentBroadcast{
			Source:         plan.Source,
			Share:          shares[i],
			SoloThroughput: plan.Throughput,
			Throughput:     shares[i] * plan.Throughput,
			Cached:         out.Result.Cached,
			Plan:           plan,
		}
		if plan.Packing != nil {
			b.PackedThroughput = shares[i] * plan.PackedThroughput
		}
		cp.Broadcasts[i] = b
		cp.TotalThroughput += b.Throughput
		for id, r := range plan.EdgeRate {
			combined[id] += shares[i] * r
		}
	}

	// Capacity ledger: the combined share-scaled rates of all broadcasts
	// must respect every node's one-port budgets. This holds by positive
	// homogeneity of the LP; recomputing it here turns any violation of
	// that argument (or a corrupted cached plan) into a hard error instead
	// of an oversubscribed schedule.
	for u := 0; u < p.NumNodes(); u++ {
		if !p.NodeAlive(u) {
			continue
		}
		for dir, ids := range [][]int{p.InLinkIDs(u), p.OutLinkIDs(u)} {
			occ := 0.0
			for _, id := range ids {
				if p.LinkLive(id) {
					occ += p.SliceTime(id) * combined[id]
				}
			}
			if occ > 1+1e-6 {
				side := "incoming"
				if dir == 1 {
					side = "outgoing"
				}
				return nil, fmt.Errorf("service: concurrent schedule oversubscribes node %d %s port (occupation %v)", u, side, occ)
			}
			if dir == 0 {
				if occ > cp.MaxInOccupation {
					cp.MaxInOccupation = occ
				}
			} else if occ > cp.MaxOutOccupation {
				cp.MaxOutOccupation = occ
			}
		}
	}
	return cp, nil
}
