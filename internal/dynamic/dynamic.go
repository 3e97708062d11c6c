package dynamic

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/steady"
	"repro/internal/throughput"
)

// Policy names, in report order.
const (
	PolicyKeep    = "keep"
	PolicyRepair  = "repair"
	PolicyRebuild = "rebuild"
)

// PolicyNames returns the policy names in report order.
func PolicyNames() []string { return []string{PolicyKeep, PolicyRepair, PolicyRebuild} }

// Config parameterizes a churn run.
type Config struct {
	// Heuristic is the tree-construction heuristic used for the initial
	// tree and by the rebuild policy (default: lp-grow-tree, which reuses
	// the session's re-solved edge rates for free).
	Heuristic string
	// Model is the port model under which trees are evaluated (default
	// one-port bidirectional, as in the paper).
	Model model.PortModel
	// ColdResolve replaces the incremental steady session with a fresh
	// cold solve at every event: the differential-testing oracle and the
	// baseline of BenchmarkChurnResolve.
	ColdResolve bool
	// RecordTimings enables wall-clock measurements (repair latency in
	// nanoseconds, total run time). Off by default so reports are
	// byte-for-byte deterministic.
	RecordTimings bool
	// OnEvent, when non-nil, is invoked after every event with the outcome
	// and the current policy trees (shared, not copies — used by property
	// tests and visualization; do not mutate).
	OnEvent func(EventOutcome, PolicyTrees)
}

func (c Config) heuristic() string {
	if c.Heuristic == "" {
		return heuristics.NameLPGrowTree
	}
	return c.Heuristic
}

// PolicyTrees bundles the current tree of each policy.
type PolicyTrees struct {
	Keep    *platform.Tree
	Repair  *platform.Tree
	Rebuild *platform.Tree
}

// PolicyOutcome is the outcome of one policy at one event.
type PolicyOutcome struct {
	Policy string `json:"policy"`
	// Throughput is the policy's steady-state throughput right after the
	// event (0 when broken).
	Throughput float64 `json:"throughput"`
	// Ratio is Throughput / Optimal (0 when the optimum is degenerate).
	Ratio float64 `json:"ratio"`
	// Broken reports that some alive node receives nothing under the
	// policy's tree.
	Broken bool `json:"broken,omitempty"`
	// Reattached is the number of nodes whose parent edge the repair
	// changed at this event (repair policy only) — the deterministic
	// repair-latency proxy.
	Reattached int `json:"reattached,omitempty"`
	// RepairNanos is the wall time of the repair (repair policy, only with
	// Config.RecordTimings).
	RepairNanos int64 `json:"repairNanos,omitempty"`
	// LostSlices is the cumulative shortfall of delivered slices against
	// the optimum from time 0 up to this event.
	LostSlices float64 `json:"lostSlices"`
}

// EventOutcome is the outcome of one churn event.
type EventOutcome struct {
	Index int     `json:"index"`
	Time  float64 `json:"time"`
	// Delta is the mutation applied at the event.
	Delta platform.Delta `json:"delta"`
	// AliveNodes and LiveLinks describe the platform after the mutation.
	AliveNodes int `json:"aliveNodes"`
	LiveLinks  int `json:"liveLinks"`
	// Optimal is the re-solved steady-state optimum after the mutation.
	Optimal float64 `json:"optimal"`
	// ResolveWarm reports whether the re-solve reused the warm master
	// (false on rebuilds and in ColdResolve mode); ResolvePivots counts its
	// simplex pivots.
	ResolveWarm   bool `json:"resolveWarm"`
	ResolvePivots int  `json:"resolvePivots"`
	// Policies holds the keep/repair/rebuild outcomes, in PolicyNames order.
	Policies []PolicyOutcome `json:"policies"`
}

// PolicySummary aggregates one policy over a whole trace.
type PolicySummary struct {
	Policy string `json:"policy"`
	// MeanRatio and MinRatio summarize the per-event ratios.
	MeanRatio float64 `json:"meanRatio"`
	MinRatio  float64 `json:"minRatio"`
	// BrokenEvents counts the events after which the policy stranded at
	// least one alive node.
	BrokenEvents int `json:"brokenEvents"`
	// Reattached is the total number of parent-edge changes (repair only).
	Reattached int `json:"reattached"`
	// DeliveredSlices is the number of slices delivered over the horizon;
	// LostSlices is the shortfall against the optimum.
	DeliveredSlices float64 `json:"deliveredSlices"`
	LostSlices      float64 `json:"lostSlices"`
}

// Report is the outcome of one churn run.
type Report struct {
	Source    int    `json:"source"`
	Heuristic string `json:"heuristic"`
	Model     string `json:"model"`
	// Profile, Seed and Horizon echo the trace.
	Profile string  `json:"profile"`
	Seed    int64   `json:"seed"`
	Horizon float64 `json:"horizon"`
	// InitialOptimal and InitialThroughput describe the pristine platform
	// before the first event.
	InitialOptimal    float64 `json:"initialOptimal"`
	InitialThroughput float64 `json:"initialThroughput"`
	// Events holds one outcome per trace event.
	Events []EventOutcome `json:"events"`
	// Summary holds one aggregate per policy, in PolicyNames order.
	Summary []PolicySummary `json:"summary"`
	// ResolvePivots is the total number of simplex pivots spent re-solving
	// the optimum (initial solve plus every event), in both warm-session
	// and cold-per-event mode — the headline metric of
	// BenchmarkChurnResolve.
	ResolvePivots int `json:"resolvePivots"`
	// LP reports the steady-session work across the whole trace (all zero
	// in Config.ColdResolve mode, which bypasses the session).
	LP steady.SessionStats `json:"lp"`
	// WallNanos is the total run time (only with Config.RecordTimings).
	WallNanos int64 `json:"wallNanos,omitempty"`
}

// Errors returned by Run.
var ErrBadTrace = errors.New("dynamic: trace does not apply to the platform")

// policyState tracks one policy while the trace plays. The optimum-slice
// accumulator lives once in Run (it is identical for every policy); only
// the delivered slices differ per policy.
type policyState struct {
	name       string
	tree       *platform.Tree
	throughput float64
	delivered  float64
	ratios     []float64
	broken     int
	reattached int
}

func (ps *policyState) advance(dt float64) {
	if dt <= 0 {
		return
	}
	if !math.IsInf(ps.throughput, 0) && !math.IsNaN(ps.throughput) {
		ps.delivered += ps.throughput * dt
	}
}

func (ps *policyState) lost(optimalAcc float64) float64 {
	return math.Max(0, optimalAcc-ps.delivered)
}

// Run plays the trace against a private clone of the platform and returns
// the per-event and per-policy report. The run is fully deterministic for a
// fixed (platform, source, trace, cfg) tuple unless Config.RecordTimings is
// set.
func Run(base *platform.Platform, source int, trace *Trace, cfg Config) (*Report, error) {
	//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
	start := time.Now()
	p := base.Clone()
	if err := p.ValidateLive(source); err != nil {
		return nil, err
	}
	heurName := cfg.heuristic()
	if _, err := heuristics.ByName(heurName); err != nil {
		return nil, err
	}

	session := steady.NewSession(p, source, nil)
	resolve := func() (*steady.Solution, bool, error) {
		if cfg.ColdResolve {
			sol, err := steady.Solve(p, source, nil)
			return sol, false, err
		}
		before := session.Stats().WarmResolves
		sol, err := session.Resolve()
		return sol, session.Stats().WarmResolves > before, err
	}

	sol, _, err := resolve()
	if err != nil {
		return nil, err
	}
	resolvePivots := sol.LPIterations
	initial, err := buildLiveTree(p, source, heurName, sol.EdgeRate)
	if err != nil {
		return nil, err
	}
	initialTP := throughput.TreeThroughput(p, initial, cfg.Model)

	rep := &Report{
		Source:            source,
		Heuristic:         heurName,
		Model:             cfg.Model.String(),
		Profile:           trace.Profile,
		Seed:              trace.Seed,
		Horizon:           trace.Horizon,
		InitialOptimal:    sol.Throughput,
		InitialThroughput: initialTP,
		Events:            make([]EventOutcome, 0, len(trace.Events)),
	}

	states := []*policyState{
		{name: PolicyKeep, tree: initial, throughput: initialTP},
		{name: PolicyRepair, tree: initial, throughput: initialTP},
		{name: PolicyRebuild, tree: initial, throughput: initialTP},
	}
	optimal := sol.Throughput
	optimalAcc := 0.0
	now := 0.0
	advanceAll := func(until float64) {
		dt := until - now
		if dt > 0 && !math.IsInf(optimal, 0) && !math.IsNaN(optimal) {
			optimalAcc += optimal * dt
		}
		for _, ps := range states {
			ps.advance(dt)
		}
		now = until
	}

	for i, ev := range trace.Events {
		if ev.Time < now {
			return nil, fmt.Errorf("%w: event %d at time %v before %v", ErrBadTrace, i, ev.Time, now)
		}
		advanceAll(ev.Time)
		if _, err := p.ApplyDelta(ev.Delta); err != nil {
			return nil, fmt.Errorf("%w: event %d (%v): %v", ErrBadTrace, i, ev.Delta, err)
		}
		sol, warm, err := resolve()
		if err != nil {
			return nil, fmt.Errorf("dynamic: re-solve after event %d (%v): %w", i, ev.Delta, err)
		}
		optimal = sol.Throughput
		resolvePivots += sol.LPIterations

		out := EventOutcome{
			Index:         i,
			Time:          ev.Time,
			Delta:         ev.Delta,
			AliveNodes:    p.NumAliveNodes(),
			LiveLinks:     len(liveLinkIDs(p)),
			Optimal:       optimal,
			ResolveWarm:   warm,
			ResolvePivots: sol.LPIterations,
		}
		for _, ps := range states {
			po := PolicyOutcome{Policy: ps.name}
			switch ps.name {
			case PolicyKeep:
				pruned, complete, err := ps.tree.LivePrune(p)
				if err != nil {
					return nil, fmt.Errorf("dynamic: keep policy at event %d: %w", i, err)
				}
				po.Broken = !complete
				if complete {
					ps.throughput = throughput.TreeThroughput(p, pruned, cfg.Model)
				} else {
					ps.throughput = 0
				}
			case PolicyRepair:
				//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
				repairStart := time.Now()
				repaired, st, err := heuristics.RepairTree(p, source, ps.tree)
				if err != nil {
					return nil, fmt.Errorf("dynamic: repair policy at event %d: %w", i, err)
				}
				if cfg.RecordTimings {
					//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
					po.RepairNanos = time.Since(repairStart).Nanoseconds()
				}
				ps.tree = repaired
				ps.reattached += st.Reattached
				po.Reattached = st.Reattached
				ps.throughput = throughput.TreeThroughput(p, repaired, cfg.Model)
			case PolicyRebuild:
				rebuilt, err := buildLiveTree(p, source, heurName, sol.EdgeRate)
				if err != nil {
					return nil, fmt.Errorf("dynamic: rebuild policy at event %d: %w", i, err)
				}
				ps.tree = rebuilt
				ps.throughput = throughput.TreeThroughput(p, rebuilt, cfg.Model)
			}
			po.Throughput = ps.throughput
			if optimal > 0 && !math.IsInf(optimal, 0) {
				po.Ratio = ps.throughput / optimal
			}
			if po.Broken {
				ps.broken++
			}
			ps.ratios = append(ps.ratios, po.Ratio)
			po.LostSlices = ps.lost(optimalAcc)
			out.Policies = append(out.Policies, po)
		}
		rep.Events = append(rep.Events, out)
		if cfg.OnEvent != nil {
			cfg.OnEvent(out, PolicyTrees{Keep: states[0].tree, Repair: states[1].tree, Rebuild: states[2].tree})
		}
	}

	// Account the tail interval up to the horizon.
	if trace.Horizon > now {
		advanceAll(trace.Horizon)
	}
	for _, ps := range states {
		sum := PolicySummary{
			Policy:          ps.name,
			BrokenEvents:    ps.broken,
			Reattached:      ps.reattached,
			DeliveredSlices: ps.delivered,
			LostSlices:      ps.lost(optimalAcc),
			MinRatio:        math.Inf(1),
		}
		for _, r := range ps.ratios {
			sum.MeanRatio += r
			if r < sum.MinRatio {
				sum.MinRatio = r
			}
		}
		if len(ps.ratios) > 0 {
			sum.MeanRatio /= float64(len(ps.ratios))
		} else {
			sum.MinRatio = 0
		}
		rep.Summary = append(rep.Summary, sum)
	}
	rep.ResolvePivots = resolvePivots
	rep.LP = session.Stats()
	if cfg.RecordTimings {
		//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
		rep.WallNanos = time.Since(start).Nanoseconds()
	}
	return rep, nil
}

// buildLiveTree builds a spanning tree of the platform's live part with the
// named heuristic. On a fully-live platform the heuristic runs directly;
// otherwise it runs on a compacted copy containing only the alive nodes and
// live links (the existing heuristics assume every node is reachable), and
// the tree is mapped back to original node and link IDs with dead nodes
// left detached.
func buildLiveTree(p *platform.Platform, source int, heuristic string, rates []float64) (*platform.Tree, error) {
	if p.NumAliveNodes() == p.NumNodes() && len(liveLinkIDs(p)) == p.NumLinks() {
		b, err := heuristics.ByNameWithRates(heuristic, rates)
		if err != nil {
			return nil, err
		}
		return b.Build(p, source)
	}
	cp, nodeOf, linkOf, cSource := compactLive(p, source)
	var cRates []float64
	if rates != nil {
		cRates = make([]float64, len(linkOf))
		for i, id := range linkOf {
			cRates[i] = rates[id]
		}
	}
	b, err := heuristics.ByNameWithRates(heuristic, cRates)
	if err != nil {
		return nil, err
	}
	ct, err := b.Build(cp, cSource)
	if err != nil {
		return nil, err
	}
	out := platform.NewTree(p.NumNodes(), source)
	for cv, parent := range ct.Parent {
		if parent >= 0 {
			out.SetParent(nodeOf[cv], nodeOf[parent], linkOf[ct.ParentLink[cv]])
		}
	}
	if err := out.ValidateLive(p); err != nil {
		return nil, fmt.Errorf("dynamic: mapped-back tree invalid: %w", err)
	}
	return out, nil
}

// compactLive materializes the live sub-platform: alive nodes re-indexed
// densely (in increasing original order), live links re-added in increasing
// original link order. It returns the compact platform, the compact→original
// node and link maps, and the compact source index.
func compactLive(p *platform.Platform, source int) (*platform.Platform, []int, []int, int) {
	n := p.NumNodes()
	compactOf := make([]int, n)
	nodeOf := make([]int, 0, p.NumAliveNodes())
	for u := 0; u < n; u++ {
		if p.NodeAlive(u) {
			compactOf[u] = len(nodeOf)
			nodeOf = append(nodeOf, u)
		} else {
			compactOf[u] = -1
		}
	}
	cp := platform.New(len(nodeOf))
	cp.SetSliceSize(p.SliceSize())
	for cv, u := range nodeOf {
		cp.SetNode(cv, p.Node(u))
	}
	var linkOf []int
	for id := 0; id < p.NumLinks(); id++ {
		if !p.LinkLive(id) {
			continue
		}
		l := p.Link(id)
		cp.MustAddLink(compactOf[l.From], compactOf[l.To], l.Cost)
		linkOf = append(linkOf, id)
	}
	return cp, nodeOf, linkOf, compactOf[source]
}
