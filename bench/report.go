package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; bench_test.go keeps the two
// in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the planner sees, on every workload.
// Bound is the share of the baseline's value by which a metric may worsen.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"verified_share", "share", "higher", 0.001},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"plan_gmean_ms", "ms", "lower", 0.15},
	{"plan_p50_ms", "ms", "lower", 0.15},
	{"plan_p95_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run (README.md says
// which end-to-end metric each should move, and on which workload).
var perLayer = []metricSpec{
	{Name: "platform.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "platform.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "platform.canonical_us", Unit: "us", Better: "lower"},
	{Name: "platform.body_bytes", Unit: "bytes", Better: "lower"},
	{Name: "platform.delta_apply_us", Unit: "us", Better: "lower"},
	{Name: "steady.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "steady.nonlp_ms", Unit: "ms", Better: "lower"},
	{Name: "steady.rounds", Unit: "count", Better: "lower"},
	{Name: "steady.cuts", Unit: "count", Better: "lower"},
	{Name: "steady.cuts_per_round", Unit: "ratio", Better: "lower"},
	{Name: "steady.cold_solves", Unit: "count", Better: "lower"},
	{Name: "steady.canceled", Unit: "count", Better: "lower"},
	{Name: "steady.pivots", Unit: "count", Better: "lower"},
	{Name: "steady.warm_pivots", Unit: "count", Better: "lower"},
	{Name: "steady.warm_resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "steady.session_rebuilds", Unit: "count", Better: "lower"},
	{Name: "lp.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.share", Unit: "share", Better: "lower"},
	{Name: "lp.us_per_pivot", Unit: "us", Better: "lower"},
	{Name: "maxflow.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "maxflow.flows", Unit: "count", Better: "lower"},
	{Name: "maxflow.us_per_flow", Unit: "us", Better: "lower"},
	{Name: "maxflow.est_share", Unit: "share", Better: "lower"},
	{Name: "heuristics.build_ms", Unit: "ms", Better: "lower"},
	{Name: "heuristics.ratio", Unit: "ratio", Better: "higher"},
	{Name: "pack.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "pack.share", Unit: "share", Better: "lower"},
	{Name: "pack.trees", Unit: "count", Better: "lower"},
	{Name: "pack.ratio", Unit: "ratio", Better: "higher"},
	{Name: "pack.not_packed", Unit: "count", Better: "lower"},
	{Name: "service.plan_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "service.plan_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.hit_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "service.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "service.plan_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.hits", Unit: "count", Better: "higher"},
	{Name: "service.misses", Unit: "count", Better: "lower"},
	{Name: "service.twin_misses", Unit: "count", Better: "lower"},
	{Name: "service.solves", Unit: "count", Better: "lower"},
	{Name: "service.warm_resolves", Unit: "count", Better: "higher"},
	{Name: "service.singleflight", Unit: "count", Better: "lower"},
	{Name: "service.evictions", Unit: "count", Better: "lower"},
	{Name: "http.hit_overhead_us", Unit: "us", Better: "lower"},
	{Name: "http.hit_p99_us", Unit: "us", Better: "lower"},
	{Name: "http.req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "http.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "http.non2xx", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.coverage", Unit: "share", Better: "higher"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the contract's result line plus what
// a reader needs to judge it.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	traced   bool
	passes   int
	samples  map[string]int // timing metric → sample count
	failures []failure
	rows     []string // extra human-readable rows (stage table, cells)
}

// resultLine is the last line of standard output: the exported fields.
func (r *runResult) resultLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(b)
}

func (r *runResult) set(specs []metricSpec, name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over an empty stage
	}
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: s.Unit}
			if samples > 0 {
				r.samples[name] = samples
			}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec list")
}

// print writes the human-readable report of a run.
func (r *runResult) print(out io.Writer, specs []metricSpec) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "\n== %s (%s): %d passes, %d attempted, %d failed, correct=%v\n", r.workload, mode, r.passes, r.Attempted, r.Failed, r.Correct)
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-26s %14.6g %-6s", s.Name, m.Value, m.Unit)
		if n := r.samples[s.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if s.Bound > 0 {
			line += fmt.Sprintf("  (%s is better, bound %g%%)", s.Better, s.Bound*100)
		}
		fmt.Fprintln(out, line)
	}
	for _, row := range r.rows {
		fmt.Fprintln(out, "  "+row)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED %s %s [%s]: %s\n", f.Cell, f.Key, f.Class, f.Reason)
	}
}

// header describes the machine and the run.
func header(out io.Writer, ev env, seed int64, seconds float64, scale string) {
	knob := "absent"
	if knobPresent() {
		knob = "present"
	}
	fmt.Fprintf(out, "bench: go=%s nproc=%d GOMAXPROCS=%d clients=%d engine_workers=%d seed=%d pool_seed=%d seconds=%g scale=%s backend_knob=%s deadline_ms=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), ev.clients, ev.workers, seed, poolSeed, seconds, scale, knob, planDeadlineMs)
}

// setupRepeats is how often set-up runs; setup_s is the median.
const setupRepeats = 3

// live is a primed pass waiting to run its timed section.
type live struct {
	s     *schedule
	e     *engine
	ex    executor
	prime []result
}

// prepare builds the pass's schedule, starts a fresh engine (and listener)
// and primes it: everything a pass needs before its timed section.
func (ev env) prepare(ctx context.Context, b *builder, pass int) (*live, error) {
	s, err := b.schedule(pass)
	if err != nil {
		return nil, err
	}
	e := newEngine(ev.workers)
	var ex executor = inProcess{e}
	if b.w.HTTP {
		if ex, err = newOverHTTP(e, ev.clients); err != nil {
			return nil, err
		}
	}
	l := &live{s: s, e: e, ex: ex}
	l.prime, _ = runOps(ctx, ex.do, s.prime, ev.clients)
	for i, r := range l.prime {
		if r.err != nil {
			ex.close()
			return nil, fmt.Errorf("priming %s: %w", s.prime[i].key, r.err)
		}
	}
	return l, nil
}

// run executes the timed section and tears the pass down.
func (l *live) run(ctx context.Context, ev env) *passRun {
	defer l.ex.close()
	pr := &passRun{sched: l.s, prime: l.prime}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pr.timed, pr.wall = runOps(ctx, l.ex.do, l.s.timed, ev.clients)
	runtime.ReadMemStats(&m1)
	pr.alloc = m1.TotalAlloc - m0.TotalAlloc
	pr.counters = engineCounters(l.e)
	if h, ok := l.ex.(*overHTTP); ok {
		pr.non2xx = h.non2xx.Load()
	}
	return pr
}

// setup measures set-up setupRepeats times from a cold builder and returns
// the last prepared pass with the median time.
func (ev env) setup(ctx context.Context, b *builder) (*live, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		b.reset()
		t0 := time.Now()
		l, err := ev.prepare(ctx, b, 0)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return l, median(times), nil
		}
		l.ex.close()
	}
}

// passes runs whole passes until the box is used up, verifying each one
// outside its timed section. first, when non-nil, is an already prepared
// pass 0.
func (ev env) passes(ctx context.Context, b *builder, v *verifier, first *live, box time.Duration, one bool) ([]*passRun, error) {
	var runs []*passRun
	start := time.Now()
	for pass := 0; ; pass++ {
		l := first
		if pass > 0 || l == nil {
			var err error
			if l, err = ev.prepare(ctx, b, pass); err != nil {
				return nil, err
			}
		}
		pr := l.run(ctx, ev)
		v.pass(b.w, pr)
		runs = append(runs, pr)
		// Start another pass only if about half of it still fits.
		spent := time.Since(start)
		if one || spent+spent/time.Duration(2*len(runs)) > box {
			return runs, nil
		}
	}
}

// measure is the untraced run of one workload: the end-to-end metrics.
func measure(ctx context.Context, ev env, w *workload, seed int64, seconds float64, smoke bool) (*runResult, error) {
	b := newBuilder(w, seed, smoke)
	first, setupS, err := ev.setup(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	v := newVerifier(smoke)
	runs, err := ev.passes(ctx, b, v, first, time.Duration(seconds*float64(time.Second)), smoke)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	r := &runResult{Metrics: map[string]metric{}, samples: map[string]int{}, workload: w.Name, passes: len(runs), failures: v.failures}
	var lats, p50s, p95s []float64
	byCell := map[string][]float64{}
	var alloc, wall float64
	verified := 0
	for _, pr := range runs {
		wall += pr.wall.Seconds()
		alloc += float64(pr.alloc)
		pass := make([]float64, len(pr.timed))
		for i, res := range pr.timed {
			pass[i] = res.lat.Seconds() * 1e3
			cell := pr.sched.timed[i].cell
			byCell[cell] = append(byCell[cell], pass[i])
			if res.ok {
				verified++
			}
		}
		lats = append(lats, pass...)
		pass = sortedCopy(pass)
		p50s = append(p50s, quantile(pass, 0.5))
		p95s = append(p95s, quantile(pass, 0.95))
	}
	r.Attempted = len(lats)
	r.Failed = r.Attempted - verified
	r.Correct = r.Failed == 0 && len(v.failures) == 0

	cells := make([]string, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	logSum := 0.0
	for _, c := range cells {
		med := median(byCell[c])
		logSum += math.Log(med)
		r.rows = append(r.rows, fmt.Sprintf("cell %-28s p50 %10.3f ms  n=%d", c, med, len(byCell[c])))
	}
	n := len(lats)
	r.set(endToEnd, "setup_s", setupS, setupRepeats)
	r.set(endToEnd, "wall_s", wall/float64(len(runs)), len(runs))
	r.set(endToEnd, "ops_per_s", float64(verified)/wall, n)
	r.set(endToEnd, "verified_share", float64(verified)/float64(n), n)
	r.set(endToEnd, "alloc_mb_per_op", alloc/1e6/float64(n), n)
	r.set(endToEnd, "plan_gmean_ms", math.Exp(logSum/float64(len(cells))), n)
	// A pass disturbed from outside moves its own quantiles only.
	r.set(endToEnd, "plan_p50_ms", median(p50s), n)
	r.set(endToEnd, "plan_p95_ms", median(p95s), n)
	return r, nil
}

// suiteResult is every workload's untraced and traced run, the form of
// baseline.json and of the files -compare reads.
type suiteResult struct {
	Machine   string                       `json:"machine"`
	Go        string                       `json:"go"`
	NumCPU    int                          `json:"nproc"`
	Clients   int                          `json:"clients"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Scale     string                       `json:"scale"`
	Workloads map[string]map[string]metric `json:"workloads"`
	Failures  map[string][]failure         `json:"failures,omitempty"`
}

func (s *suiteResult) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare prints the per-workload, per-metric difference of two suites. It
// returns how many end-to-end metrics of b are worse than a's by more than
// their bound, and how many counts differ (two runs of one binary must agree
// on every count; two commits need not).
func compare(out io.Writer, a, b *suiteResult) (regressions, countDiffs int) {
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wn := range names {
		fmt.Fprintf(out, "\n== %s\n", wn)
		am, bm := a.Workloads[wn], b.Workloads[wn]
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, s := range specs {
				x, okA := am[s.Name]
				y, okB := bm[s.Name]
				if !okA || !okB {
					continue
				}
				change := 0.0
				if x.Value != 0 {
					change = (y.Value - x.Value) / math.Abs(x.Value)
				}
				worse := change
				if s.Better == "higher" {
					worse = -change
				}
				verdict := ""
				switch {
				case s.Bound > 0 && worse > s.Bound:
					verdict = fmt.Sprintf("WORSE beyond %g%%", s.Bound*100)
					regressions++
				case s.Bound > 0:
					verdict = "within bound"
				case s.Unit == "count" && x.Value != y.Value:
					verdict = "count differs"
					countDiffs++
				}
				fmt.Fprintf(out, "  %-26s %14.6g -> %14.6g %-6s %+8.2f%%  %s\n", s.Name, x.Value, y.Value, s.Unit, change*100, verdict)
			}
		}
	}
	return regressions, countDiffs
}

// machineLabel names the machine a suite was measured on.
func machineLabel(host string) string {
	return fmt.Sprintf("%s/%s %d cpu (%s)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), host)
}
