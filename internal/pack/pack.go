package pack

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/steady"
)

// Errors returned by Decompose.
var (
	// ErrNoSolution means the solution to decompose is missing or carries no
	// edge rates (e.g. the degenerate single-alive-node +Inf solution).
	ErrNoSolution = errors.New("pack: solution has no finite edge rates to decompose")
	// ErrNotPacked means the decomposition could not reach the LP throughput
	// within tolerance — numerically degenerate rate graphs only. The error
	// names the exit that ended column generation (round ceiling, stalled
	// master value, dual certificate, re-priced column, failed master solve);
	// the returned packing (if any) is still capacity-feasible.
	ErrNotPacked = errors.New("pack: packing fell short of the LP throughput")
)

// Options tunes Decompose.
type Options struct {
	// MaxTrees caps the number of returned trees (0 = no cap). When the
	// optimal decomposition uses more trees, the lightest are dropped and
	// the packing is marked Truncated with its honest (smaller) throughput.
	MaxTrees int
	// Tolerance is the acceptable relative gap between the packed throughput
	// and the LP throughput (default 1e-7, scaled by the throughput
	// magnitude). Column generation stops as soon as the master value is
	// within Tolerance of the LP optimum, or when pricing proves no tree can
	// improve the master; a gap beyond 10x Tolerance is reported as
	// ErrNotPacked. The default keeps the hard failure bar at the package's
	// 1e-6 contract while the cutting-plane and master LPs certify ~1e-8.
	Tolerance float64
}

func (o *Options) tolerance() float64 {
	if o != nil && o.Tolerance > 0 {
		return o.Tolerance
	}
	return 1e-7
}

func (o *Options) maxTrees() int {
	if o != nil && o.MaxTrees > 0 {
		return o.MaxTrees
	}
	return 0
}

// supportEps is the rate below which an edge is not part of the support
// graph: the LP's own tolerance regime leaves ~1e-9 noise on zero rates,
// and edges that thin cannot carry a meaningful tree weight.
const supportEps = 1e-9

// priceEps is the pricing threshold: a tree enters the master only when its
// dual cost is below 1-priceEps (reduced cost meaningfully positive).
const priceEps = 1e-9

// maxRounds is the backstop on column-generation rounds: the stop rule is
// progress (stallRounds), and a decomposition still gaining after this many
// rounds is cut off all the same, by name, in the ErrNotPacked it returns.
const maxRounds = 1 << 14

// stallRounds is how many consecutive rounds the master value may fail to
// rise before column generation gives up on a support of the given size. A
// degenerate master sits on a plateau while the columns that will lift it
// come in, one per round, so the window scales with the support.
func stallRounds(support int) int { return 8*support + 64 }

// Decompose peels a weighted spanning-tree packing out of the solution's
// optimal edge rates n(u,v), rooted at source: a greedy max-bottleneck peel
// seeds the trees, then restricted-master column generation (min-cost
// arborescence pricing on the master duals) closes the gap to the LP
// throughput, which Edmonds' arborescence-packing theorem guarantees is
// attainable within the rate graph. The result is attached to
// sol.Packing and returned.
//
// Decompose is deterministic: the same (platform, source, solution, opts)
// produce an identical packing on every run.
func Decompose(p *platform.Platform, source int, sol *steady.Solution, opts *Options) (*steady.Packing, error) {
	return decompose(p, source, sol, opts, nil)
}

// decompose is Decompose; observe, when set, sees the master after every
// solve (the differential tests re-solve the same tree set on the dense
// oracle there).
func decompose(p *platform.Platform, source int, sol *steady.Solution, opts *Options, observe func(m *master, value float64)) (*steady.Packing, error) {
	//lint:ignore detrand wall-time instrumentation (Packing.WallNanos); never marshaled
	start := time.Now()
	if sol == nil || math.IsInf(sol.Throughput, 0) || math.IsNaN(sol.Throughput) {
		return nil, ErrNoSolution
	}
	if len(sol.EdgeRate) != p.NumLinks() {
		return nil, fmt.Errorf("pack: %d edge rates for %d links", len(sol.EdgeRate), p.NumLinks())
	}
	if err := p.Validate(source); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	tp := sol.Throughput
	// Scale the gap tolerance with the throughput: the master LP's duals and
	// objective carry relative (not absolute) solver noise, so an absolute
	// 1e-9 bar is unreachable on platforms broadcasting hundreds of slices
	// per time unit.
	tol := opts.tolerance() * math.Max(1, math.Abs(tp))

	pk := &steady.Packing{Source: source, LPThroughput: tp}
	if math.Abs(tp) <= tol {
		// Nothing to pack: a zero-throughput optimum has an empty packing.
		sol.Packing = pk
		return pk, nil
	}

	// Support graph: live links with positive optimal rate between alive
	// nodes, in link-ID order (the order every deterministic tie-break
	// below leans on).
	support := make([]graph.Edge, 0, p.NumLinks())
	for id := 0; id < p.NumLinks(); id++ {
		l := p.Link(id)
		if p.LinkLive(id) && p.NodeAlive(l.From) && p.NodeAlive(l.To) && sol.EdgeRate[id] > supportEps {
			support = append(support, graph.Edge{ID: id, From: l.From, To: l.To})
		}
	}
	if len(support) == 0 {
		return nil, fmt.Errorf("%w: no link carries a positive rate", ErrNotPacked)
	}
	m := newMaster(support, sol.EdgeRate, p.NumLinks())

	// Phase 1 — peel: extract max-bottleneck arborescences from the
	// residual rates. Every full-bottleneck peel saturates at least one
	// support edge, so the loop ends after at most len(support)+1 rounds.
	residual := append([]float64(nil), sol.EdgeRate...)
	inTree := make([]bool, p.NumNodes())
	remaining := tp
	for remaining > tol {
		t := maxBottleneckArborescence(p, source, residual, support, inTree)
		if t == nil {
			break
		}
		w := bottleneck(t, residual)
		if w <= supportEps {
			break
		}
		if w > remaining {
			w = remaining
		}
		for _, id := range t.ParentLink {
			if id >= 0 {
				residual[id] -= w
			}
		}
		remaining -= w
		m.add(t)
	}
	pk.Peeled = len(m.trees)

	// Phase 2 — certify: restricted master over the peeled trees,
	// generating min-cost-arborescence columns on the master duals until
	// the packing value reaches the LP throughput or no tree prices in.
	pr := newPricer(p, source, support)
	if len(m.trees) == 0 {
		// The peel never found an arborescence; price one with zero costs to
		// seed the master (it exists whenever tp > 0 — the LP rates support
		// flow to every alive destination).
		t, _, err := pr.price(make([]float64, len(support)))
		if err != nil {
			return nil, err
		}
		m.add(t)
		pk.Priced++
	}
	// stopped names the exit that ended column generation short of tp.
	var stopped string
	best, lastGain := 0.0, 0
	for round := 0; ; round++ {
		value, y, err := m.solve()
		if err != nil {
			// Seen on large symmetric platforms only (homogeneous-cluster:96):
			// a stalled warm re-solve falls back to a cold phase 1 over every
			// tree row, which the degenerate master does not survive. The
			// weights went with the basis, so there is no short packing.
			return nil, fmt.Errorf("%w: after %d rounds: %v", ErrNotPacked, pk.Rounds, err)
		}
		pk.Rounds++
		if observe != nil {
			observe(m, value)
		}
		if value >= tp-tol {
			break // the packing achieves the LP throughput
		}
		if value > best+tol {
			best, lastGain = value, round
		}
		if round >= maxRounds {
			stopped = fmt.Sprintf("round ceiling (%d) reached with the master value still rising", maxRounds)
			break
		}
		if round-lastGain >= stallRounds(len(support)) {
			stopped = fmt.Sprintf("master value stalled at %v for %d rounds", value, round-lastGain)
			break
		}
		// Price a new column: the cheapest arborescence under the master
		// duals. Its dual cost below 1 means positive reduced cost.
		t, cost, err := pr.price(y)
		if err != nil {
			return nil, err
		}
		if cost >= 1-priceEps {
			stopped = fmt.Sprintf("dual certificate: cheapest tree prices at %v, master value %v is the maximum over the rate graph", cost, value)
			break
		}
		if !m.add(t) {
			stopped = fmt.Sprintf("numerically stuck: pricing returned a column the master already holds (dual cost %v)", cost)
			break
		}
		pk.Priced++
	}
	pk.MasterPivots = m.pivots()

	// Assemble: positive-weight trees in deterministic (generation) order.
	weights, err := m.weights()
	if err != nil {
		return nil, err
	}
	for i, t := range m.trees {
		if weights[i] > supportEps {
			pk.Trees = append(pk.Trees, steady.PackedTree{Tree: t, Weight: weights[i]})
			pk.Throughput += weights[i]
		}
	}
	if cap := opts.maxTrees(); cap > 0 && len(pk.Trees) > cap {
		truncatePacking(pk, cap)
	}
	sol.Packing = pk
	//lint:ignore detrand wall-time instrumentation (Packing.WallNanos); never marshaled
	pk.WallNanos = time.Since(start).Nanoseconds()
	if pk.Throughput < tp-10*tol && !pk.Truncated {
		if stopped == "" {
			stopped = "the master reached the LP throughput but its tree weights do not sum to it"
		}
		return pk, fmt.Errorf("%w: packed %v of %v after %d rounds: %s", ErrNotPacked, pk.Throughput, tp, pk.Rounds, stopped)
	}
	return pk, nil
}

// truncatePacking keeps the cap heaviest trees (ties broken by original
// position, so truncation is deterministic) in their original order and
// re-derives the packed throughput.
func truncatePacking(pk *steady.Packing, cap int) {
	type ranked struct {
		idx int
		pt  steady.PackedTree
	}
	rs := make([]ranked, len(pk.Trees))
	for i, pt := range pk.Trees {
		rs[i] = ranked{idx: i, pt: pt}
	}
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].pt.Weight > rs[b].pt.Weight })
	rs = rs[:cap]
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].idx < rs[b].idx })
	pk.Trees = pk.Trees[:0]
	pk.Throughput = 0
	for _, r := range rs {
		pk.Trees = append(pk.Trees, r.pt)
		pk.Throughput += r.pt.Weight
	}
	pk.Truncated = true
}
