package main

// adapter.go is the only file of the benchmark that imports repro/internal/...:
// every call into the system goes through the functions below, so a later
// change to a layer's API is repaired here and nowhere else.
//
// Request bodies and solver options are built as JSON and decoded leniently,
// so the benchmark asks for the revised master while that knob exists and
// still compiles and runs once it is deleted (ROADMAP item 5).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"repro/internal/dynamic"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/model"
	"repro/internal/pack"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/service"
	"repro/internal/steady"
	"repro/internal/topology"
)

type (
	plat     = platform.Platform
	delta    = platform.Delta
	engine   = service.Engine
	request  = service.PlanRequest
	planDoc  = service.Plan
	session  = steady.Session
	solution = steady.Solution
	packing  = steady.Packing
)

// verifyTol is the relative tolerance of every plan check (the repository's
// 1e-6 differential bar).
const verifyTol = 1e-6

// probeHeuristic is the single-tree heuristic the traced run builds on the
// solved edge rates.
const probeHeuristic = heuristics.NameLPGrowTree

func deriveSeed(base int64, label string, coords ...int) int64 {
	return topology.DeriveSeed(base, label, coords...)
}

func newRNG(seed int64) *rand.Rand { return topology.NewRNG(seed) }

// generate builds one registry platform.
func generate(family string, size int, seed int64) (*plat, error) {
	sc, err := scenarios.Get(family)
	if err != nil {
		return nil, err
	}
	return sc.Generate(size, seed)
}

// churnDeltas returns the first events of the family's registry churn trace
// on p (source 0).
func churnDeltas(p *plat, family string, events int, seed int64) ([]delta, error) {
	sc, err := scenarios.Get(family)
	if err != nil {
		return nil, err
	}
	prof, err := dynamic.ProfileByName(sc.EffectiveChurnProfile())
	if err != nil {
		return nil, err
	}
	tr, err := dynamic.GenerateTrace(p, 0, prof, events, scenarios.ChurnTraceSeed(seed))
	if err != nil {
		return nil, err
	}
	out := make([]delta, len(tr.Events))
	for i, ev := range tr.Events {
		out[i] = ev.Delta
	}
	return out, nil
}

// renumber returns a renumbered twin of p: the same platform under a random
// link order and node numbering that keeps node 0 (the source) in place, so
// the twin's optimum equals p's. Its fingerprint equals p's, its exact
// encoding does not.
func renumber(p *plat, seed int64) (*plat, error) {
	orig := p.CanonicalEncoding()
	for attempt := 0; attempt < 8; attempt++ {
		rng := newRNG(deriveSeed(seed, "attempt", attempt))
		perm := rng.Perm(p.NumNodes())
		for u, v := range perm {
			if v == 0 {
				perm[u], perm[0] = perm[0], 0
				break
			}
		}
		order := rng.Perm(p.NumLinks())
		q := platform.New(p.NumNodes())
		q.SetSliceSize(p.SliceSize())
		for u := 0; u < p.NumNodes(); u++ {
			q.SetNode(perm[u], p.Node(u))
		}
		links := p.Links()
		for _, id := range order {
			l := links[id]
			if _, err := q.AddLink(perm[l.From], perm[l.To], l.Cost); err != nil {
				return nil, err
			}
		}
		if !bytes.Equal(q.CanonicalEncoding(), orig) {
			return q, nil
		}
	}
	return nil, errors.New("bench: could not draw a non-identity renumbering")
}

// identity is what the engine keys its cache on.
type identity struct {
	FP    string // permutation-invariant fingerprint (hex)
	Exact string // hash of the exact canonical encoding (hex)
}

func identify(p *plat) identity {
	return identity{FP: fingerprintHex(p), Exact: hex.EncodeToString(canonicalHash(p))}
}

// knobPresent reports whether the plan request still has the backend knob.
func knobPresent() bool {
	var req request
	if err := json.Unmarshal([]byte(`{"revisedLP":true}`), &req); err != nil {
		return false
	}
	out, err := json.Marshal(req)
	return err == nil && bytes.Contains(out, []byte(`"revisedLP":true`))
}

// requestJSON is the wire form of a plan request as the benchmark writes it.
type requestJSON struct {
	Platform   *plat   `json:"platform,omitempty"`
	Base       string  `json:"base,omitempty"`
	BaseExact  string  `json:"baseExact,omitempty"`
	Deltas     []delta `json:"deltas,omitempty"`
	Source     int     `json:"source"`
	Trees      int     `json:"trees,omitempty"`
	RevisedLP  bool    `json:"revisedLP,omitempty"`
	DeadlineMs int     `json:"deadlineMs,omitempty"`
}

// planBody encodes a full-platform plan request.
func planBody(p *plat, trees, deadlineMs int, knob bool) ([]byte, error) {
	return json.Marshal(requestJSON{Platform: p, Trees: trees, RevisedLP: knob, DeadlineMs: deadlineMs})
}

// deltaBody encodes a base+delta plan request.
func deltaBody(base identity, d delta, deadlineMs int, knob bool) ([]byte, error) {
	return json.Marshal(requestJSON{Base: base.FP, BaseExact: base.Exact, Deltas: []delta{d}, RevisedLP: knob, DeadlineMs: deadlineMs})
}

// decodeRequest is the lenient decode of a request body (unknown fields are
// ignored, unlike the HTTP handler's strict decoder).
func decodeRequest(body []byte) (*request, error) {
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// solverOptions are the steady options of the traced run's own sessions.
func solverOptions() *steady.Options {
	var opts steady.Options
	// A field the struct no longer has is ignored.
	_ = json.Unmarshal([]byte(`{"Revised":true}`), &opts)
	return &opts
}

// newEngine builds a planning engine whose cache never evicts during a pass.
func newEngine(workers int) *engine {
	return service.New(service.Config{Workers: workers, CacheSize: 1 << 20})
}

func newHandler(e *engine) http.Handler { return service.NewHandler(e) }

// planInProcess is one bytes-in → bytes-out plan through the engine.
func planInProcess(ctx context.Context, e *engine, body []byte) ([]byte, error) {
	req, err := decodeRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := e.PlanContext(ctx, *req)
	if err != nil {
		return nil, err
	}
	return res.JSON, nil
}

// counters are the engine counters the schedule predicts exactly.
type counters struct {
	Requests, Hits, Misses, TwinMisses, Solves int64
	DeltaPlans, WarmResolves, SessionRebuilds  int64
	Singleflight, Evictions, Canceled          int64
}

func engineCounters(e *engine) counters {
	s := e.Stats()
	return counters{
		Requests: s.Requests, Hits: s.Hits, Misses: s.Misses, TwinMisses: s.TwinMisses, Solves: s.Solves,
		DeltaPlans: s.DeltaPlans, WarmResolves: s.WarmResolves, SessionRebuilds: s.SessionRebuilds,
		Singleflight: s.Singleflight, Evictions: s.Evictions, Canceled: s.Canceled,
	}
}

// ---- single-layer calls the traced run wraps in spans ----

func fingerprintHex(p *plat) string { return p.Fingerprint().String() }

func canonicalHash(p *plat) []byte {
	h := sha256.Sum256(p.CanonicalEncoding())
	return h[:]
}

func applyDelta(p *plat, d delta) error {
	_, err := p.ApplyDelta(d)
	return err
}

// newSession opens a solver session on p (which the session then owns).
func newSession(p *plat, source int) *session {
	return steady.NewSession(p, source, solverOptions())
}

func resolve(ctx context.Context, s *session) (*solution, error) { return s.ResolveContext(ctx) }

func sessionRebuilds(s *session) int { return s.Stats().Rebuilds }

func isCanceled(err error) bool { return errors.Is(err, lp.ErrCanceled) }

func isNotPacked(err error) bool { return errors.Is(err, pack.ErrNotPacked) }

// flowNetwork is the separation network of p under the given edge rates:
// edge IDs coincide with link IDs, dead links carry nothing.
func flowNetwork(p *plat, rates []float64) *maxflow.Network {
	nw := maxflow.New(p.NumNodes())
	for id := 0; id < p.NumLinks(); id++ {
		l := p.Link(id)
		c := 0.0
		if p.LinkLive(id) {
			c = rates[id]
		}
		nw.AddEdge(l.From, l.To, c)
	}
	return nw
}

// sweep replays one cut-separation round from outside the solver: one
// max-flow and both canonical minimum cuts per alive destination. It returns
// the smallest destination flow and the number of flows.
func sweep(p *plat, source int, rates []float64, withCuts bool) (minFlow float64, flows int) {
	nw := flowNetwork(p, rates)
	minFlow = math.Inf(1)
	for w := 0; w < p.NumNodes(); w++ {
		if w == source || !p.NodeAlive(w) {
			continue
		}
		nw.Reset()
		if f := nw.MaxFlow(source, w); f < minFlow {
			minFlow = f
		}
		if withCuts {
			nw.MinCutSourceSide(source)
			nw.MinCutSinkSide(w)
		}
		flows++
	}
	return minFlow, flows
}

// heuristicThroughput builds the probe heuristic on the solved rates.
func heuristicThroughput(p *plat, source int, rates []float64) (float64, error) {
	return service.EvaluateHeuristic(p, source, probeHeuristic, rates, model.OnePortBidirectional)
}

func decompose(p *plat, source int, sol *solution, trees int) (*packing, error) {
	return pack.Decompose(p, source, sol, &pack.Options{MaxTrees: trees})
}

// marshalPlan assembles and encodes the plan document the way the engine
// does after a solve.
func marshalPlan(p *plat, source int, id identity, sol *solution, pk *packing) ([]byte, error) {
	plan := planDoc{
		Fingerprint: id.FP, ExactKey: id.Exact, Source: source, Nodes: p.NumNodes(), Links: p.NumLinks(),
		Throughput: sol.Throughput, UpperBound: sol.UpperBound, EdgeRate: sol.EdgeRate,
		LPRounds: sol.Rounds, LPCuts: sol.Cuts, LPPivots: sol.LPIterations,
		LPWarmPivots: sol.WarmPivots, LPColdPivots: sol.ColdPivots,
	}
	if pk != nil {
		plan.Packing, plan.PackedThroughput, plan.PackedTrees = pk, pk.Throughput, pk.NumTrees()
		if sol.Throughput > 0 {
			plan.PackedRatio = pk.Throughput / sol.Throughput
		}
	}
	return json.Marshal(&plan)
}

// ---- verification ----

func decodePlan(b []byte) (*planDoc, error) {
	var pl planDoc
	if err := json.Unmarshal(b, &pl); err != nil {
		return nil, err
	}
	return &pl, nil
}

// verifyPlan checks a returned plan against the platform it was asked for:
// the edge rates support the throughput to every alive destination, respect
// every one-port bound, sit under the reported upper bound, and (k-tree
// plans) decompose into a valid packing of the same value.
func verifyPlan(p *plat, source int, pl *planDoc, trees int) error {
	if len(pl.EdgeRate) != p.NumLinks() {
		return fmt.Errorf("%d edge rates for %d links", len(pl.EdgeRate), p.NumLinks())
	}
	tp := pl.Throughput
	if !(tp > 0) || math.IsInf(tp, 0) {
		return fmt.Errorf("throughput %v", tp)
	}
	if minFlow, _ := sweep(p, source, pl.EdgeRate, false); minFlow < tp*(1-verifyTol) {
		return fmt.Errorf("edge rates support %v, below throughput %v", minFlow, tp)
	}
	for u := 0; u < p.NumNodes(); u++ {
		if !p.NodeAlive(u) {
			continue
		}
		for _, ids := range [][]int{p.InLinkIDs(u), p.OutLinkIDs(u)} {
			occ := 0.0
			for _, id := range ids {
				if p.LinkLive(id) {
					occ += p.SliceTime(id) * pl.EdgeRate[id]
				}
			}
			if occ > 1+verifyTol {
				return fmt.Errorf("node %d one-port occupation %v", u, occ)
			}
		}
	}
	if pl.UpperBound < tp-verifyTol*math.Max(1, tp) {
		return fmt.Errorf("upper bound %v below throughput %v", pl.UpperBound, tp)
	}
	if trees > 0 {
		if pl.Packing == nil {
			return errors.New("k-tree plan without a packing")
		}
		if err := pl.Packing.Validate(p, pl.EdgeRate, verifyTol*math.Max(1, tp)); err != nil {
			return err
		}
		if pl.Packing.Throughput < tp*(1-verifyTol) {
			return fmt.Errorf("packed %v below LP throughput %v", pl.Packing.Throughput, tp)
		}
	}
	return nil
}

// directThroughput is the one-shot oracle (LP (2) solved whole) the smoke
// scale compares small cells against.
func directThroughput(p *plat, source int) (float64, error) {
	sol, err := steady.SolveDirect(p, source, nil)
	if err != nil {
		return 0, err
	}
	return sol.Throughput, nil
}
