package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// result is what one operation returned.
type result struct {
	raw []byte // in-process: the plan; HTTP: the whole response body
	lat time.Duration
	err error
	// sent and received are the HTTP body sizes (0 in-process).
	sent, received int
	// ok is set by verification.
	ok bool
}

// executor sends one operation to the system.
type executor interface {
	do(ctx context.Context, o *op) result
	close()
}

// inProcess drives the engine directly: bytes in, plan bytes out.
type inProcess struct{ e *engine }

func (x inProcess) do(ctx context.Context, o *op) result {
	raw, err := planInProcess(ctx, x.e, o.body)
	return result{raw: raw, err: err}
}

func (inProcess) close() {}

// overHTTP drives the engine's handler over a loopback listener with
// keep-alive connections.
type overHTTP struct {
	url    string
	srv    *http.Server
	client *http.Client
	done   chan struct{}
	non2xx atomic.Int64
}

func newOverHTTP(e *engine, clients int) (*overHTTP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	x := &overHTTP{
		url:    "http://" + ln.Addr().String() + "/v1/plan",
		srv:    &http.Server{Handler: newHandler(e)},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(x.done)
		_ = x.srv.Serve(ln) // returns ErrServerClosed on close()
	}()
	return x, nil
}

func (x *overHTTP) do(ctx context.Context, o *op) result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, x.url, bytes.NewReader(o.body))
	if err != nil {
		return result{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := x.client.Do(req)
	if err != nil {
		return result{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := result{raw: raw, err: err, sent: len(o.body), received: len(raw)}
	if err == nil && resp.StatusCode != http.StatusOK {
		x.non2xx.Add(1)
		res.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return res
}

// planOf extracts the plan document from a result's raw bytes.
func planOf(overHTTP bool, raw []byte) ([]byte, error) {
	if !overHTTP {
		return raw, nil
	}
	var env struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	if len(env.Plan) == 0 {
		return nil, fmt.Errorf("response has no plan")
	}
	return env.Plan, nil
}

func (x *overHTTP) close() {
	x.client.CloseIdleConnections()
	_ = x.srv.Close()
	<-x.done
}

// runOps sends ops from closed-loop clients: each client takes the next
// unit (a free operation, or a whole chain in order) when its previous one
// has answered. It returns one result per op and the wall of the section.
func runOps(ctx context.Context, do func(context.Context, *op) result, ops []*op, clients int) ([]result, time.Duration) {
	results := make([]result, len(ops))
	var units [][]int
	chainUnit := map[int]int{}
	for i, o := range ops {
		if o.chain < 0 {
			units = append(units, []int{i})
			continue
		}
		u, ok := chainUnit[o.chain]
		if !ok {
			u = len(units)
			chainUnit[o.chain] = u
			units = append(units, nil)
		}
		units[u] = append(units[u], i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= len(units) {
					return
				}
				for _, i := range units[u] {
					octx, cancel := context.WithTimeout(ctx, opBackstop)
					t0 := time.Now()
					res := do(octx, ops[i])
					res.lat = time.Since(t0)
					cancel()
					results[i] = res
				}
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// passRun is one executed pass.
type passRun struct {
	sched    *schedule
	prime    []result
	timed    []result
	wall     time.Duration
	alloc    uint64 // heap bytes allocated during the timed section
	counters counters
	non2xx   int64
}

// env is the machine side of a run.
type env struct {
	clients int
	workers int
}

func newEnv() env {
	n := runtime.NumCPU()
	c := n
	if c > 2 {
		c = 2
	}
	return env{clients: c, workers: n}
}

// lineages replays the delta chains of a schedule in order, outside the
// engine: the platform a delta operation's plan is for is its chain's base
// with every delta so far applied.
type lineages struct {
	bases map[int]*plat
	cur   map[int]*plat
}

func newLineages(s *schedule) *lineages { return &lineages{bases: s.chains, cur: map[int]*plat{}} }

// platform returns the platform o's plan is for. Operations of one chain
// must be asked for in order.
func (l *lineages) platform(o *op) (*plat, error) {
	if o.d == nil {
		return o.p, nil
	}
	cur := l.cur[o.chain]
	if cur == nil {
		cur = l.bases[o.chain].Clone()
		l.cur[o.chain] = cur
	}
	if err := applyDelta(cur, *o.d); err != nil {
		return nil, fmt.Errorf("replaying delta: %w", err)
	}
	return cur, nil
}

// failure is one operation that did not count, as a named row.
type failure struct {
	Cell   string `json:"cell"`
	Key    string `json:"key"`
	Class  string `json:"class"`
	Reason string `json:"reason"`
}

// verifier checks every returned plan, outside the timed sections. The first
// answer for a key is checked in full; a later answer that is byte-identical
// to it is accepted on that identity.
type verifier struct {
	smoke    bool
	plans    map[string][]byte  // key → first verified plan
	tp       map[string]float64 // key → its throughput
	failures []failure
}

func newVerifier(smoke bool) *verifier {
	return &verifier{smoke: smoke, plans: map[string][]byte{}, tp: map[string]float64{}}
}

// pass verifies one executed pass: engine counters against the schedule's
// prediction, then every operation. It returns the number of timed
// operations that failed.
func (v *verifier) pass(w *workload, pr *passRun) (failed int) {
	want, got := pr.sched.expected(), pr.counters
	countersOK := got.Requests == want.Requests && got.Hits == want.Hits && got.Misses == want.Misses &&
		got.TwinMisses == want.TwinMisses && got.Solves == want.Solves && got.DeltaPlans == want.DeltaPlans &&
		got.WarmResolves+got.SessionRebuilds == got.Solves && got.Singleflight == 0 && got.Evictions == 0 && got.Canceled == 0
	lin := newLineages(pr.sched)
	check := func(ops []*op, res []result, timed bool) {
		for i, o := range ops {
			p, err := lin.platform(o)
			if err == nil {
				err = res[i].err
			}
			reason := ""
			if err != nil {
				reason = err.Error()
			} else if plan, err := planOf(w.HTTP, res[i].raw); err != nil {
				reason = "unverified: " + err.Error()
			} else if err := v.one(o, p, plan); err != nil {
				reason = "unverified: " + err.Error()
			}
			res[i].ok = reason == ""
			if !res[i].ok {
				v.failures = append(v.failures, failure{Cell: o.cell, Key: o.key, Class: o.class, Reason: reason})
				if timed {
					failed++
				}
			}
		}
	}
	check(pr.sched.prime, pr.prime, false)
	check(pr.sched.timed, pr.timed, true)
	if !countersOK && failed == 0 {
		// Every plan was right but the engine did not take the predicted
		// path (a hit that solved, a twin served from the cache): the whole
		// pass is suspect.
		v.failures = append(v.failures, failure{Cell: "*", Key: "engine counters", Class: "gate",
			Reason: fmt.Sprintf("got %+v, schedule predicts %+v (warm+rebuilds must equal solves; no singleflight, eviction or cancellation)", got, want)})
		for i := range pr.timed {
			pr.timed[i].ok = false
		}
		failed = len(pr.timed)
	}
	return failed
}

// one verifies the plan returned for o, whose platform is p.
func (v *verifier) one(o *op, p *plat, plan []byte) error {
	first, seen := v.plans[o.key]
	if seen && bytes.Equal(first, plan) {
		return nil
	}
	if seen && o.want == wantHit {
		return fmt.Errorf("hit is not byte-identical to the first answer")
	}
	pl, err := decodePlan(plan)
	if err != nil {
		return err
	}
	if err := verifyPlan(p, 0, pl, o.trees); err != nil {
		return err
	}
	if seen {
		if rel(pl.Throughput, v.tp[o.key]) > 1e-9 {
			return fmt.Errorf("throughput %v differs from %v on an earlier pass", pl.Throughput, v.tp[o.key])
		}
		return nil
	}
	if o.twinOf != "" {
		base, ok := v.tp[o.twinOf]
		if !ok || rel(pl.Throughput, base) > verifyTol {
			return fmt.Errorf("twin throughput %v, base %v", pl.Throughput, base)
		}
		if id := identify(p); pl.Fingerprint != id.FP || pl.ExactKey != id.Exact {
			return fmt.Errorf("twin plan carries the wrong identity")
		}
	}
	if v.smoke && o.d == nil && p.NumNodes() <= 32 {
		direct, err := directThroughput(p, 0)
		if err != nil {
			return fmt.Errorf("direct solve: %w", err)
		}
		if rel(pl.Throughput, direct) > verifyTol {
			return fmt.Errorf("throughput %v, direct LP %v", pl.Throughput, direct)
		}
	}
	v.plans[o.key], v.tp[o.key] = plan, pl.Throughput
	return nil
}

func rel(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
