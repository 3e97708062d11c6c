package main

// trace.go is the traced run: every operation is executed stage by stage
// through the layers' public functions, with an in-memory span around each
// call. All spans are recorded from here; spans inside the program are a
// later change.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op; a
// stage span's Parent is the operation's root span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Start  int64              `json:"startNs"`
	End    int64              `json:"endNs"`
	Probe  bool               `json:"probe,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Stage names. The engine performs the first group on a plan request; the
// second group is replayed from outside to measure a layer on its own.
const (
	stDecode      = "platform.decode"
	stDeltaApply  = "platform.delta_apply"
	stFingerprint = "platform.fingerprint"
	stCanonical   = "platform.canonical"
	stResolve     = "steady.resolve"
	stWarmResolve = "steady.warm_resolve"
	stPack        = "pack.decompose"
	stMarshal     = "service.marshal"

	stSweep     = "maxflow.sweep"
	stHeuristic = "heuristics.build"
	stRoot      = "bench.op"
)

var engineStages = map[string]bool{
	stDecode: true, stDeltaApply: true, stFingerprint: true, stCanonical: true,
	stResolve: true, stWarmResolve: true, stPack: true, stMarshal: true,
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(parent *span, opID int, name string, probe bool) *span {
	layer, _, _ := strings.Cut(name, ".")
	s := &span{Op: opID, Name: name, Layer: layer, Probe: probe}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	if parent != nil {
		s.Parent = parent.ID
	}
	s.Start = time.Since(r.t0).Nanoseconds()
	return s
}

func (r *recorder) end(s *span) { s.End = time.Since(r.t0).Nanoseconds() }

func (s *span) count(name string, v float64) {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] = v
}

// chainState is the warm session of one delta lineage in the staged replay.
type chainState struct {
	p    *plat
	sess *session
}

// stager executes operations stage by stage.
type stager struct {
	rec    *recorder
	mu     sync.Mutex
	chains map[int]*chainState
}

// solved is what the probes after the replay need from one operation.
type solved struct {
	o   *op
	p   *plat
	sol *solution
}

// stage runs fn inside a span.
func (st *stager) stage(root *span, name string, probe bool, fn func(s *span) error) error {
	s := st.rec.begin(root, root.Op, name, probe)
	err := fn(s)
	st.rec.end(s)
	return err
}

// do is the staged form of one operation; it returns the plan bytes the
// stages produced, as the engine would.
func (st *stager) do(ctx context.Context, o *op, id int, deadlineMs int, probe bool) (res result, out *solved) {
	root := st.rec.begin(nil, id, stRoot, probe)
	defer st.rec.end(root)
	root.count("body_bytes", float64(len(o.body)))
	fail := func(err error) (result, *solved) { return result{err: err}, nil }

	var req *request
	if err := st.stage(root, stDecode, probe, func(*span) (err error) { req, err = decodeRequest(o.body); return }); err != nil {
		return fail(err)
	}
	p := req.Platform
	var cs *chainState
	if o.chain >= 0 {
		st.mu.Lock()
		cs = st.chains[o.chain]
		if cs == nil {
			cs = &chainState{}
			st.chains[o.chain] = cs
		}
		st.mu.Unlock()
	}
	if o.d != nil {
		if cs.sess == nil || len(req.Deltas) != 1 {
			return fail(fmt.Errorf("delta operation %s without a lineage session", o.key))
		}
		p = cs.p
		if err := st.stage(root, stDeltaApply, probe, func(*span) error { return applyDelta(p, req.Deltas[0]) }); err != nil {
			return fail(err)
		}
	}
	if p == nil {
		return fail(fmt.Errorf("request %s carries no platform", o.key))
	}
	var id0 identity
	_ = st.stage(root, stFingerprint, probe, func(*span) error { id0.FP = fingerprintHex(p); return nil })
	_ = st.stage(root, stCanonical, probe, func(*span) error { id0.Exact = fmt.Sprintf("%x", canonicalHash(p)); return nil })
	if o.want == wantHit {
		// The cache answers; there is nothing below the lookup to stage.
		return result{}, nil
	}

	sctx, cancel := context.WithTimeout(ctx, time.Duration(deadlineMs)*time.Millisecond)
	defer cancel()
	var sol *solution
	name := stResolve
	sess := (*session)(nil)
	if o.d != nil {
		name, sess = stWarmResolve, cs.sess
	}
	err := st.stage(root, name, probe, func(s *span) (err error) {
		if sess == nil {
			sess = newSession(p, 0)
		}
		before := sessionRebuilds(sess)
		sol, err = resolve(sctx, sess)
		if err != nil {
			if isCanceled(err) {
				s.count("canceled", 1)
			}
			return err
		}
		s.count("rounds", float64(sol.Rounds))
		s.count("cuts", float64(sol.Cuts))
		s.count("pivots", float64(sol.LPIterations))
		s.count("warm_pivots", float64(sol.WarmPivots))
		s.count("cold_solves", float64(sol.ColdSolves))
		s.count("lp_wall_ns", float64(sol.LPWallNanos))
		s.count("rebuilds", float64(sessionRebuilds(sess)-before))
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if cs != nil {
		cs.p, cs.sess = p, sess
	}

	if !probe {
		// Two layers measured on their own, from outside the solver: one
		// separation round on the final rates, and the single-tree heuristic.
		_ = st.stage(root, stSweep, true, func(s *span) error {
			_, flows := sweep(p, 0, sol.EdgeRate, true)
			s.count("flows", float64(flows))
			return nil
		})
		_ = st.stage(root, stHeuristic, true, func(s *span) error {
			tp, err := heuristicThroughput(p, 0, sol.EdgeRate)
			if err == nil && sol.Throughput > 0 {
				s.count("ratio", tp/sol.Throughput)
			}
			return err
		})
	}
	var pk *packing
	if o.trees > 0 {
		if pk, err = st.pack(root, p, sol, o.trees, probe); err != nil {
			return fail(err)
		}
	}
	var plan []byte
	if err := st.stage(root, stMarshal, probe, func(s *span) (err error) {
		plan, err = marshalPlan(p, 0, id0, sol, pk)
		s.count("plan_bytes", float64(len(plan)))
		return
	}); err != nil {
		return fail(err)
	}
	return result{raw: plan}, &solved{o: o, p: p, sol: sol}
}

func (st *stager) pack(root *span, p *plat, sol *solution, trees int, probe bool) (pk *packing, err error) {
	err = st.stage(root, stPack, probe, func(s *span) (err error) {
		pk, err = decompose(p, 0, sol, trees)
		if err != nil {
			if isNotPacked(err) {
				s.count("not_packed", 1)
			}
			return fmt.Errorf("tree packing: %w", err)
		}
		s.count("trees", float64(pk.NumTrees()))
		if sol.Throughput > 0 {
			s.count("ratio", pk.Throughput/sol.Throughput)
		}
		return nil
	})
	return pk, err
}

// probeDeltas is how many churn deltas the delta probe replays.
const probeDeltas = 8

// probes measures, on the cheapest solved platform of the replay, the stages
// no operation of this workload asked for: a k-tree packing and a short
// warm-delta lineage.
func (st *stager) probes(ctx context.Context, w *workload, cheapest *solved, id int, hasDelta bool) error {
	root := st.rec.begin(nil, id, stRoot, true)
	defer st.rec.end(root)
	if w.Trees == 0 {
		if _, err := st.pack(root, cheapest.p, cheapest.sol, 256, true); err != nil && !isNotPacked(err) {
			return err
		}
	}
	if hasDelta {
		return nil
	}
	p := cheapest.o.p.Clone()
	family, _, _ := strings.Cut(cheapest.o.cell, ":")
	deltas, err := churnDeltas(p, family, probeDeltas, deriveSeed(poolSeed, "bench/probe/"+cheapest.o.key))
	if err != nil {
		return err
	}
	sess := newSession(p, 0)
	if _, err := resolve(ctx, sess); err != nil {
		return err
	}
	for _, d := range deltas {
		if err := st.stage(root, stDeltaApply, true, func(*span) error { return applyDelta(p, d) }); err != nil {
			return err
		}
		if err := st.stage(root, stWarmResolve, true, func(s *span) error {
			before := sessionRebuilds(sess)
			_, err := resolve(ctx, sess)
			s.count("rebuilds", float64(sessionRebuilds(sess)-before))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// hitProbe measures a cache hit in-process and over loopback HTTP on an
// engine that holds every platform of ops, one client, round robin.
type hitProbe struct {
	inProc, http []float64 // latencies, µs
	allocs       float64   // heap objects per in-process hit
	reqBytes     float64
	respBytes    float64
	non2xx       int64
}

func runHitProbe(ctx context.Context, e *engine, ops []*op, budget time.Duration) (*hitProbe, error) {
	hp := &hitProbe{}
	round := func(do func(context.Context, *op) result, lats *[]float64) error {
		start := time.Now()
		for n := 0; n < 50 || (time.Since(start) < budget && n < 4000); n++ {
			o := ops[n%len(ops)]
			t0 := time.Now()
			res := do(ctx, o)
			*lats = append(*lats, float64(time.Since(t0).Nanoseconds())/1e3)
			if res.err != nil {
				return fmt.Errorf("hit probe %s: %w", o.key, res.err)
			}
			hp.reqBytes += float64(res.sent)
			hp.respBytes += float64(res.received)
		}
		return nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := round(inProcess{e}.do, &hp.inProc); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	hp.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(hp.inProc))
	h, err := newOverHTTP(e, 1)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := round(h.do, &hp.http); err != nil {
		return nil, err
	}
	hp.reqBytes /= float64(len(hp.http))
	hp.respBytes /= float64(len(hp.http))
	hp.non2xx = h.non2xx.Load()
	return hp, nil
}

// traced is the traced run of one workload: the per-layer metrics.
func traced(ctx context.Context, ev env, w *workload, seed int64, seconds float64, smoke bool, outDir string) (*runResult, error) {
	b := newBuilder(w, seed, smoke)
	v := newVerifier(smoke)
	r := &runResult{Metrics: map[string]metric{}, samples: map[string]int{}, workload: w.Name, traced: true}
	fail := func(err error) (*runResult, error) { return nil, fmt.Errorf("%s: traced run: %w", w.Name, err) }

	// Untraced passes through the workload's own path: the wall the traced
	// pass is compared with, and the engine counters.
	runs, err := ev.passes(ctx, b, v, nil, time.Duration(0.4*seconds*float64(time.Second)), smoke)
	if err != nil {
		return fail(err)
	}
	r.passes = len(runs)
	last := runs[len(runs)-1]
	for _, pr := range runs {
		r.Attempted += len(pr.timed)
		for _, res := range pr.timed {
			if !res.ok {
				r.Failed++
			}
		}
	}

	// One in-process pass on a fresh engine: what the engine itself costs per
	// request, without HTTP, paired with the staged pass below.
	s, err := b.schedule(0)
	if err != nil {
		return fail(err)
	}
	all := append(append([]*op(nil), s.prime...), s.timed...)
	e := newEngine(ev.workers)
	inproc, _ := runOps(ctx, inProcess{e}.do, all, ev.clients)
	var missMs []float64
	for i, res := range inproc {
		if res.err != nil {
			return fail(fmt.Errorf("in-process %s: %w", all[i].key, res.err))
		}
		if all[i].want != wantHit {
			missMs = append(missMs, res.lat.Seconds()*1e3)
		}
	}

	// The staged pass.
	st := &stager{rec: newRecorder(), chains: map[int]*chainState{}}
	solvedOps := make([]*solved, len(all))
	index := map[*op]int{}
	for i, o := range all {
		index[o] = i
	}
	stagedRes, _ := runOps(ctx, func(ctx context.Context, o *op) result {
		i := index[o]
		res, sv := st.do(ctx, o, i+1, planDeadlineMs, false)
		solvedOps[i] = sv
		return res
	}, all, ev.clients)
	// Staged plans are checked like any other answer.
	resolveMs := map[int]float64{} // operation → its cold solve
	for _, sp := range st.rec.spans {
		if sp.Name == stResolve {
			resolveMs[sp.Op] = sp.ms()
		}
	}
	lin := newLineages(s)
	var cheapest *solved
	cheapestMs := math.Inf(1)
	hasDelta := false
	for i, o := range all {
		hasDelta = hasDelta || o.d != nil
		p, err := lin.platform(o)
		if err == nil {
			err = stagedRes[i].err
		}
		if err == nil && o.want != wantHit {
			err = v.one(o, p, stagedRes[i].raw)
		}
		if err != nil {
			r.Failed++
			v.failures = append(v.failures, failure{Cell: o.cell, Key: o.key, Class: "staged " + o.class, Reason: err.Error()})
			continue
		}
		if sv := solvedOps[i]; sv != nil && o.d == nil {
			if ms, ok := resolveMs[i+1]; ok && ms < cheapestMs {
				cheapest, cheapestMs = sv, ms
			}
		}
	}
	r.Attempted += len(all)
	if cheapest == nil {
		return fail(fmt.Errorf("no operation of the staged pass solved"))
	}
	if err := st.probes(ctx, w, cheapest, len(all)+1, hasDelta); err != nil {
		return fail(fmt.Errorf("probes on %s: %w", cheapest.o.key, err))
	}
	if kf := w.KnownFailure; kf != nil && !smoke {
		in, err := b.input(kf.Cell, pinnedSeed(kf.Cell, kf.Cell.Inst[0]), kf.Trees, false)
		if err != nil {
			return fail(err)
		}
		o := &op{cell: kf.Cell.name(), class: "known-failure", key: fmt.Sprintf("%s#%d", kf.Cell.name(), kf.Cell.Inst[0]), body: in.body, p: in.p, chain: -1, trees: kf.Trees}
		if res, _ := st.do(ctx, o, len(all)+2, kf.DeadlineMs, true); res.err != nil {
			r.rows = append(r.rows, fmt.Sprintf("known failure %s: %v", o.key, res.err))
		} else {
			r.rows = append(r.rows, fmt.Sprintf("known failure %s: now succeeds", o.key))
		}
	}

	// Hits, in-process and over HTTP, on the engine that planned everything.
	var hitOps []*op
	seen := map[string]bool{}
	for _, o := range all {
		if o.p != nil && !seen[o.key] && len(hitOps) < 24 {
			seen[o.key] = true
			hitOps = append(hitOps, o)
		}
	}
	budget := 300 * time.Millisecond
	if smoke {
		budget = 0
	}
	hp, err := runHitProbe(ctx, e, hitOps, budget)
	if err != nil {
		return fail(err)
	}

	r.failures = v.failures
	r.Correct = r.Failed == 0 && len(v.failures) == 0
	st.metrics(r, all, inproc, missMs, hp, last)
	if outDir != "" {
		if err := st.rec.write(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
			return fail(err)
		}
	}
	return r, nil
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metrics derives every per-layer metric from the spans and the paired
// in-process pass. A time is either the sum over the staged pass (solve-like
// stages, whose shares must add up) or the median per operation (request-path
// stages); README.md says which.
func (st *stager) metrics(r *runResult, all []*op, inproc []result, missMs []float64, hp *hitProbe, last *passRun) {
	by := map[string][]*span{}
	selfSum := map[string]float64{} // layer → self ms, probes included
	var roots []*span
	for _, s := range st.rec.spans {
		if s.Name == stRoot {
			roots = append(roots, s)
			continue
		}
		by[s.Name] = append(by[s.Name], s)
		selfSum[s.Layer] += s.ms()
	}
	// pick prefers the stages the workload's own requests ran and falls back
	// to the probes.
	pick := func(name string) []*span {
		var own, probe []*span
		for _, s := range by[name] {
			if s.Probe {
				probe = append(probe, s)
			} else {
				own = append(own, s)
			}
		}
		if len(own) > 0 {
			return own
		}
		return probe
	}
	ms := func(spans []*span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = s.ms()
		}
		return out
	}
	total := func(spans []*span, c string) float64 {
		t := 0.0
		for _, s := range spans {
			t += s.Counts[c]
		}
		return t
	}
	set := func(name string, v float64, n int) { r.set(perLayer, name, v, n) }

	dec, fp, can := pick(stDecode), pick(stFingerprint), pick(stCanonical)
	set("platform.decode_ms", median(ms(dec)), len(dec))
	set("platform.fingerprint_ms", median(ms(fp)), len(fp))
	set("platform.canonical_us", median(ms(can))*1e3, len(can))
	body := 0.0
	for _, o := range all {
		body += float64(len(o.body))
	}
	set("platform.body_bytes", body/float64(len(all)), 0)
	da := pick(stDeltaApply)
	set("platform.delta_apply_us", median(ms(da))*1e3, len(da))

	// Cold solves of the pass; the known-failure probe only adds to canceled.
	var cold []*span
	canceled := 0.0
	for _, s := range by[stResolve] {
		canceled += s.Counts["canceled"]
		if !s.Probe {
			cold = append(cold, s)
		}
	}
	solveMs, lpMs := sum(ms(cold)), total(cold, "lp_wall_ns")/1e6
	rounds, cuts, pivots := total(cold, "rounds"), total(cold, "cuts"), total(cold, "pivots")
	set("steady.solve_ms", solveMs, len(cold))
	set("steady.nonlp_ms", solveMs-lpMs, len(cold))
	set("steady.rounds", rounds, 0)
	set("steady.cuts", cuts, 0)
	set("steady.cuts_per_round", cuts/rounds, 0)
	set("steady.cold_solves", total(cold, "cold_solves"), 0)
	set("steady.canceled", canceled, 0)
	set("steady.pivots", pivots, 0)
	set("steady.warm_pivots", total(cold, "warm_pivots"), 0)
	warm := pick(stWarmResolve)
	set("steady.warm_resolve_ms", median(ms(warm)), len(warm))
	set("steady.session_rebuilds", total(warm, "rebuilds"), 0)
	set("lp.wall_ms", lpMs, len(cold))
	set("lp.share", lpMs/solveMs, 0)
	set("lp.us_per_pivot", lpMs*1e3/pivots, 0)

	// The sweeps belong to the cold solves, operation by operation.
	sweepOf := map[int]*span{}
	for _, s := range by[stSweep] {
		sweepOf[s.Op] = s
	}
	sweepMs, flows, est := 0.0, 0.0, 0.0
	for _, s := range cold {
		if sw := sweepOf[s.Op]; sw != nil {
			sweepMs += sw.ms()
			flows += sw.Counts["flows"]
			est += sw.ms() * s.Counts["rounds"]
		}
	}
	set("maxflow.sweep_ms", sweepMs, len(cold))
	set("maxflow.flows", flows, 0)
	set("maxflow.us_per_flow", sweepMs*1e3/flows, 0)
	set("maxflow.est_share", est/solveMs, 0)

	heur := by[stHeuristic]
	set("heuristics.build_ms", sum(ms(heur)), len(heur))
	set("heuristics.ratio", total(heur, "ratio")/float64(len(heur)), 0)

	// Packing: the workload's own k-tree plans, or the probe on the cheapest
	// platform; the known-failure probe only adds to not_packed.
	var packs []*span
	for _, s := range pick(stPack) {
		if s.Counts["not_packed"] == 0 {
			packs = append(packs, s)
		}
	}
	packMs, packSolve, minRatio := sum(ms(packs)), 0.0, math.Inf(1)
	resolveOf := map[int]*span{}
	for _, s := range by[stResolve] {
		resolveOf[s.Op] = s
	}
	for _, s := range packs {
		if rs := resolveOf[s.Op]; rs != nil {
			packSolve += rs.ms()
		}
		minRatio = math.Min(minRatio, s.Counts["ratio"])
	}
	if len(packs) > 0 && packs[0].Probe {
		// The probe packed a platform solved earlier in the pass.
		packSolve = median(ms(cold))
	}
	set("pack.decompose_ms", packMs, len(packs))
	set("pack.share", packMs/(packMs+packSolve), 0)
	set("pack.trees", total(packs, "trees"), 0)
	set("pack.ratio", minRatio, 0)
	set("pack.not_packed", total(by[stPack], "not_packed"), 0)

	// The engine, in-process, paired with the staged pass.
	stagedOf := map[int]float64{} // op → Σ engine-equivalent stage ms
	for name, spans := range by {
		if !engineStages[name] {
			continue
		}
		for _, s := range spans {
			if !s.Probe {
				stagedOf[s.Op] += s.ms()
			}
		}
	}
	var overhead []float64
	untraced, staged, rootMs := 0.0, 0.0, 0.0
	for i, o := range all {
		u := inproc[i].lat.Seconds() * 1e3
		untraced += u
		staged += stagedOf[i+1]
		if o.want != wantHit {
			overhead = append(overhead, (u-stagedOf[i+1])*1e3)
		}
	}
	for _, s := range roots {
		if !s.Probe {
			rootMs += s.ms()
		}
	}
	mar := pick(stMarshal)
	set("service.plan_miss_ms", median(missMs), len(missMs))
	set("service.plan_hit_us", median(hp.inProc), len(hp.inProc))
	set("service.hit_allocs", hp.allocs, len(hp.inProc))
	set("service.marshal_ms", sum(ms(mar)), len(mar))
	set("service.plan_bytes", total(mar, "plan_bytes")/float64(len(mar)), 0)
	set("service.overhead_us", median(overhead), len(overhead))
	c := last.counters
	set("service.hits", float64(c.Hits), 0)
	set("service.misses", float64(c.Misses), 0)
	set("service.twin_misses", float64(c.TwinMisses), 0)
	set("service.solves", float64(c.Solves), 0)
	set("service.warm_resolves", float64(c.WarmResolves), 0)
	set("service.singleflight", float64(c.Singleflight), 0)
	set("service.evictions", float64(c.Evictions), 0)

	sortedHTTP := sortedCopy(hp.http)
	set("http.hit_overhead_us", quantile(sortedHTTP, 0.5)-median(hp.inProc), len(hp.http))
	set("http.hit_p99_us", quantile(sortedHTTP, 0.99), len(hp.http))
	set("http.req_bytes", hp.reqBytes, 0)
	set("http.resp_bytes", hp.respBytes, 0)
	set("http.non2xx", float64(hp.non2xx+last.non2xx), 0)

	set("trace.overhead_share", rootMs/untraced-1, len(all))
	set("trace.coverage", staged/untraced, len(all))

	// The stage table: where the staged pass spent its time, by layer.
	layers := make([]string, 0, len(selfSum))
	grand := 0.0
	for l, t := range selfSum {
		layers = append(layers, l)
		grand += t
	}
	sort.Strings(layers)
	r.rows = append(r.rows, fmt.Sprintf("stage table (self time over the staged pass and its probes, %d spans):", len(st.rec.spans)))
	for _, l := range layers {
		r.rows = append(r.rows, fmt.Sprintf("  %-12s %12.3f ms  %5.1f%%", l, selfSum[l], 100*selfSum[l]/grand))
	}
	r.rows = append(r.rows, fmt.Sprintf("  %-12s %12.3f ms  in-process untraced wall of the same operations", "engine", untraced))
}
