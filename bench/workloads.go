package main

import (
	"fmt"
	"math/rand"
	"time"
)

// poolSeed pins every platform the benchmark plans. Solve time is violently
// instance-dependent (ring:256 takes 48 ms to 1.1 s and ring:512 0.24 s to
// over 6 s across eight instances, renumbering one instance moves it 2x, and
// 7 of 100 tiers:96 instances do not finish in 2 s), so redrawing platforms
// per --seed would drown every metric in instance noise. --seed draws the
// schedule from the pinned pool instead; see README.md, "What --seed varies".
const poolSeed = 7

// planDeadlineMs is sent as deadlineMs on every request: a plan that does not
// finish is a failed operation charged its full budget, never a hung run. No
// cell's wall lies within 25 % of it.
const planDeadlineMs = 10000

// cell is one family:size of the scenarios registry with the instances a
// pass runs. On the cold workloads Inst are vetted pool indices; on the
// serve workloads len(Inst) is a count and the instances are 0..len-1.
type cell struct {
	Family string
	Size   int
	Inst   []int
}

func (c cell) name() string { return fmt.Sprintf("%s:%d", c.Family, c.Size) }

func count(n int) []int { return make([]int, n) }

// workload is one named set of inputs. Every pass gets a fresh engine, is
// primed untimed, and then runs its timed operations from closed-loop
// clients.
type workload struct {
	Name string
	Why  string
	// Kind selects the schedule builder: cold, hit, delta, twin or miss.
	Kind string
	// HTTP sends operations over a loopback listener; otherwise they go
	// in-process through the engine.
	HTTP  bool
	Trees int
	Cells []cell
	Smoke []cell
	// PerPass sizes the timed section: zipf draws (hit), deltas per lineage
	// (delta), twins per base (twin). Unused by cold and miss.
	PerPass, SmokePerPass int
	// KnownFailure is a cell the code fails on today; the traced run probes
	// it and reports the outcome as a per-layer count (README.md).
	KnownFailure *knownFailure
}

type knownFailure struct {
	Cell       cell
	Trees      int
	DeadlineMs int
}

var workloads = []workload{
	{
		Name: "cold-sep",
		Why:  "cold plans where cut separation (a max-flow per destination per round) is most of the solve and the master LP a tenth: max-flow and cut-loop work shows here, an LP-only change must not",
		Kind: "cold",
		// Heaviest first, so the two clients finish a pass together.
		Cells: []cell{
			{"ring", 512, []int{2, 4}},
			{"ring", 256, []int{3}},
			{"cluster-of-clusters", 512, []int{0, 1, 2}},
			{"chain", 512, []int{0, 1}},
		},
		Smoke: []cell{{"ring", 12, []int{0}}, {"cluster-of-clusters", 16, []int{0}}, {"chain", 12, []int{0}}},
	},
	{
		Name: "cold-lp",
		Why:  "cold plans on cyclic and dense platforms where the degenerate master LP is over 70 % of the solve and falls back to cold re-solves: LP work shows here and nothing on cold-sep",
		Kind: "cold",
		Cells: []cell{
			{"random-dense", 80, []int{0}},
			{"grid", 81, []int{0, 3, 1}},
			{"random-dense", 64, []int{0, 1}},
			{"random-sparse", 96, []int{4}},
			{"tiers", 224, []int{0}},
			{"grid", 64, []int{3}},
		},
		// No grid cell at smoke scale: steady.SolveDirect, the oracle small
		// cells are compared with, returns an infeasible "optimal" point on
		// grid:16 (README.md, "Found while building").
		Smoke:        []cell{{"tiers", 16, []int{0}}, {"random-sparse", 14, []int{0}}, {"random-dense", 10, []int{0}}},
		KnownFailure: &knownFailure{Cell: cell{"grid", 100, []int{1}}, DeadlineMs: 1500},
	},
	{
		Name:  "pack-ktree",
		Why:   "cold k-tree plans (trees=256) where pack.Decompose is over 60 % of the plan: packing work moves only this workload, every other one sends trees=0",
		Kind:  "cold",
		Trees: 256,
		Cells: []cell{
			{"tiers", 192, []int{1}},
			{"homogeneous-cluster", 48, []int{0}},
			{"random-sparse", 64, []int{2, 1}},
			{"tiers", 160, []int{0}},
			{"random-dense", 48, []int{1, 0, 2}},
			{"random-dense", 64, []int{2}},
			{"homogeneous-cluster", 44, []int{0}},
			{"homogeneous-cluster", 40, []int{0}},
		},
		Smoke:        []cell{{"homogeneous-cluster", 8, []int{0}}, {"tiers", 16, []int{0}}, {"random-dense", 10, []int{0}}},
		KnownFailure: &knownFailure{Cell: cell{"random-sparse", 64, []int{0}}, Trees: 256, DeadlineMs: planDeadlineMs},
	},
	{
		Name:    "serve-hit",
		Why:     "HTTP cache hits, zipf(1.2) over 24 primed platforms, full body each time: the solver does nothing, platform decode + fingerprint + HTTP do everything (ROADMAP item 4)",
		Kind:    "hit",
		HTTP:    true,
		Cells:   []cell{{"tiers", 64, count(8)}, {"cluster-of-clusters", 96, count(8)}, {"last-mile", 48, count(8)}},
		Smoke:   []cell{{"tiers", 12, count(2)}, {"cluster-of-clusters", 12, count(2)}, {"last-mile", 10, count(2)}},
		PerPass: 3000, SmokePerPass: 60,
	},
	{
		Name:    "serve-delta",
		Why:     "HTTP base+delta requests, 8 lineages of sequential single deltas from the registry churn trace: the warm steady.Session path, beside the cold workloads' cold path",
		Kind:    "delta",
		HTTP:    true,
		Cells:   []cell{{"cluster-of-clusters", 128, count(8)}},
		Smoke:   []cell{{"cluster-of-clusters", 16, count(2)}},
		PerPass: 40, SmokePerPass: 6,
	},
	{
		Name:    "serve-twin",
		Why:     "HTTP renumbered twins of primed platforms: fingerprint equal, exact hash different, so the twin guard must solve; it needs the fingerprint a hit could skip, so a hit gain that costs twins shows",
		Kind:    "twin",
		HTTP:    true,
		Cells:   []cell{{"tiers", 64, count(8)}, {"cluster-of-clusters", 96, count(8)}, {"last-mile", 48, count(8)}},
		Smoke:   []cell{{"tiers", 12, count(1)}, {"cluster-of-clusters", 12, count(1)}, {"last-mile", 10, count(1)}},
		PerPass: 4, SmokePerPass: 2,
	},
	{
		Name:  "serve-miss",
		Why:   "HTTP cold misses on never-seen mid-size platforms: the whole path (decode, fingerprint, solve, marshal, HTTP) at the size the service is tuned for",
		Kind:  "miss",
		HTTP:  true,
		Cells: []cell{{"tiers", 64, count(32)}, {"cluster-of-clusters", 96, count(32)}, {"ring", 64, count(32)}},
		Smoke: []cell{{"tiers", 12, count(2)}, {"cluster-of-clusters", 12, count(2)}, {"ring", 10, count(2)}},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// want is the cache outcome the schedule predicts for an operation.
type want int

const (
	wantMiss want = iota
	wantHit
	wantTwin
)

// op is one plan request of a schedule.
type op struct {
	cell  string // family:size, the unit of plan_gmean_ms
	class string // prime, miss, hit, delta or twin
	// key names the expected answer: operations with one key, in any pass,
	// must return the same plan.
	key  string
	body []byte
	// p is the platform the plan is for, id its cache identity. Delta
	// operations leave both empty: their platform is the chain's base with
	// every delta so far applied.
	p     *plat
	id    identity
	d     *delta
	chain int // ≥ 0: operations of one chain run in order on one client
	trees int
	want  want
	// twinOf is the key of the base a twin must match in throughput.
	twinOf string
}

// schedule is the operations of one pass.
type schedule struct {
	prime  []*op
	timed  []*op
	chains map[int]*plat // chain → base platform
}

// expected returns the engine counters a fresh engine must show after the
// whole schedule.
func (s *schedule) expected() counters {
	var c counters
	for _, list := range [][]*op{s.prime, s.timed} {
		for _, o := range list {
			c.Requests++
			switch o.want {
			case wantHit:
				c.Hits++
			case wantTwin:
				c.TwinMisses++
				c.Misses++
			default:
				c.Misses++
			}
			if o.d != nil {
				c.DeltaPlans++
			}
		}
	}
	c.Solves = c.Misses
	return c
}

// builder turns a workload into schedules. Platforms, bodies and identities
// are memoised, so a pass that repeats an earlier one costs nothing to build;
// reset() forgets them (set-up is timed from a cold builder).
type builder struct {
	w     *workload
	seed  int64
	smoke bool
	knob  bool
	memo  map[string]*input
	// fixed is the schedule of a workload whose passes are all alike.
	fixed *schedule
}

// input is one generated platform with its request body and identity.
type input struct {
	p    *plat
	body []byte
	id   identity
}

func newBuilder(w *workload, seed int64, smoke bool) *builder {
	return &builder{w: w, seed: seed, smoke: smoke, knob: knobPresent(), memo: map[string]*input{}}
}

func (b *builder) reset() { b.memo, b.fixed = map[string]*input{}, nil }

func (b *builder) cells() []cell {
	if b.smoke {
		return b.w.Smoke
	}
	return b.w.Cells
}

func (b *builder) perPass() int {
	if b.smoke {
		return b.w.SmokePerPass
	}
	return b.w.PerPass
}

// input generates the platform of a cell under a seed; keep memoises it for
// later passes.
func (b *builder) input(c cell, seed int64, trees int, keep bool) (*input, error) {
	key := fmt.Sprintf("%s/%d/%d", c.name(), seed, trees)
	if in, ok := b.memo[key]; ok {
		return in, nil
	}
	p, err := generate(c.Family, c.Size, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name(), err)
	}
	in, err := b.wrap(p, trees)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name(), err)
	}
	if keep {
		b.memo[key] = in
	}
	return in, nil
}

func (b *builder) wrap(p *plat, trees int) (*input, error) {
	body, err := planBody(p, trees, planDeadlineMs, b.knob)
	if err != nil {
		return nil, err
	}
	return &input{p: p, body: body, id: identify(p)}, nil
}

func pinnedSeed(c cell, inst int) int64 { return deriveSeed(poolSeed, "bench/"+c.name(), inst) }

// schedule builds the operations of one pass and checks that the engine will
// classify each as the workload means it to.
func (b *builder) schedule(pass int) (*schedule, error) {
	s, err := b.build(pass)
	if err != nil {
		return nil, err
	}
	return s, s.check()
}

// check walks the full-platform operations in order against the cache a
// fresh engine would hold: a platform generated twice (a family that ignores
// its seed) would turn a miss into a hit and must be fixed in the cell table.
func (s *schedule) check() error {
	exact, fp := map[string]bool{}, map[string]bool{}
	for _, list := range [][]*op{s.prime, s.timed} {
		for _, o := range list {
			if o.p == nil {
				continue
			}
			got := wantMiss
			switch {
			case exact[o.id.Exact]:
				got = wantHit
			case fp[o.id.FP]:
				got = wantTwin
			}
			if got != o.want {
				return fmt.Errorf("operation %s: the cache would classify it %d, the schedule means %d (duplicate platform?)", o.key, got, o.want)
			}
			exact[o.id.Exact], fp[o.id.FP] = true, true
		}
	}
	return nil
}

// build makes the operations of one pass. Operations are immutable, so cold
// and delta passes, which are all alike, share one schedule.
func (b *builder) build(pass int) (s *schedule, err error) {
	switch b.w.Kind {
	case "cold", "delta":
		if b.fixed == nil {
			if b.w.Kind == "cold" {
				b.fixed, err = b.cold()
			} else {
				b.fixed, err = b.delta()
			}
		}
		return b.fixed, err
	case "hit":
		return b.hit(pass)
	case "twin":
		return b.twin(pass)
	case "miss":
		return b.miss(pass)
	}
	return nil, fmt.Errorf("workload %s: unknown kind %q", b.w.Name, b.w.Kind)
}

// cold: every pinned (cell, instance) once, no priming; all passes alike.
func (b *builder) cold() (*schedule, error) {
	s := &schedule{}
	for _, c := range b.cells() {
		for _, inst := range c.Inst {
			in, err := b.input(c, pinnedSeed(c, inst), b.w.Trees, true)
			if err != nil {
				return nil, err
			}
			s.timed = append(s.timed, &op{cell: c.name(), class: "miss", key: fmt.Sprintf("%s#%d", c.name(), inst), body: in.body, p: in.p, id: in.id, chain: -1, trees: b.w.Trees})
		}
	}
	return s, nil
}

// pool returns the pool platforms of every cell, cells interleaved (t0 c0 l0
// t1 c1 l1 ...), each as a priming operation.
func (b *builder) pool(label string, keep bool, coords ...int) ([]*op, error) {
	var ops []*op
	cells := b.cells()
	for i := 0; ; i++ {
		added := false
		for _, c := range cells {
			if i >= len(c.Inst) {
				continue
			}
			added = true
			in, err := b.input(c, deriveSeed(poolSeed, "bench/"+label+"/"+c.name(), append(coords, i)...), b.w.Trees, keep)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%s#%s%d", c.name(), label, i)
			for _, x := range coords {
				key += fmt.Sprintf(".%d", x)
			}
			ops = append(ops, &op{cell: c.name(), class: "prime", key: key, body: in.body, p: in.p, id: in.id, chain: -1, trees: b.w.Trees})
		}
		if !added {
			return ops, nil
		}
	}
}

// hit: prime every platform, then PerPass zipf(1.2) draws over them; rank r
// is the r-th platform of the interleaved order, the draws come from --seed.
func (b *builder) hit(pass int) (*schedule, error) {
	prime, err := b.pool("hit", true)
	if err != nil {
		return nil, err
	}
	s := &schedule{prime: prime}
	rng := newRNG(deriveSeed(b.seed, "bench/hit/draws", pass))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(prime)-1))
	for i := 0; i < b.perPass(); i++ {
		base := prime[zipf.Uint64()]
		s.timed = append(s.timed, &op{cell: base.cell, class: "hit", key: base.key, body: base.body, p: base.p, id: base.id, chain: -1, trees: base.trees, want: wantHit})
	}
	return s, nil
}

// delta: prime one base per lineage, then PerPass sequential single-delta
// requests per lineage, each addressing the previous state by fingerprint.
// Eight lineages over two clients: their order decides how evenly a pass
// splits, so it is fixed.
func (b *builder) delta() (*schedule, error) {
	prime, err := b.pool("delta", true)
	if err != nil {
		return nil, err
	}
	s := &schedule{prime: prime, chains: map[int]*plat{}}
	c := b.cells()[0]
	for j, base := range prime {
		memoKey := fmt.Sprintf("lineage/%s", base.key)
		deltas, err := churnDeltas(base.p, c.Family, b.perPass(), deriveSeed(poolSeed, "bench/delta/"+c.name(), j))
		if err != nil {
			return nil, fmt.Errorf("%s lineage %d: %w", c.name(), j, err)
		}
		// The base leads its chain, so a staged replay of prime and timed
		// operations together opens the lineage's session first.
		base.chain = j
		s.chains[j] = base.p
		cur := base.p.Clone()
		prev := identify(cur)
		seen := map[string]bool{prev.Exact: true}
		for k := range deltas {
			d := deltas[k]
			body, err := deltaBody(prev, d, planDeadlineMs, b.knob)
			if err != nil {
				return nil, err
			}
			if err := applyDelta(cur, d); err != nil {
				return nil, fmt.Errorf("%s lineage %d delta %d: %w", c.name(), j, k, err)
			}
			prev = identify(cur)
			o := &op{cell: c.name(), class: "delta", key: fmt.Sprintf("%s.%d", memoKey, k), body: body, d: &d, chain: j, trees: b.w.Trees}
			// A flap that lands back on an earlier state of the lineage is
			// served from the cache.
			if seen[prev.Exact] {
				o.want = wantHit
			}
			seen[prev.Exact] = true
			s.timed = append(s.timed, o)
		}
	}
	return s, nil
}

// twin: prime the bases, then PerPass renumbered twins of each, a fresh
// renumbering per pass so no twin is ever seen twice. A renumbering moves the
// solve by up to 2x, so the renumberings belong to the pinned pool; --seed
// gives the order.
func (b *builder) twin(pass int) (*schedule, error) {
	prime, err := b.pool("twin", true)
	if err != nil {
		return nil, err
	}
	s := &schedule{prime: prime}
	for k := 0; k < b.perPass(); k++ {
		for i, base := range prime {
			q, err := renumber(base.p, deriveSeed(poolSeed, "bench/twin/perm", pass, k, i))
			if err != nil {
				return nil, err
			}
			in, err := b.wrap(q, base.trees)
			if err != nil {
				return nil, err
			}
			s.timed = append(s.timed, &op{cell: base.cell, class: "twin", key: fmt.Sprintf("%s~%d.%d", base.key, pass, k), body: in.body, p: q, id: in.id, chain: -1, trees: base.trees, want: wantTwin, twinOf: base.key})
		}
	}
	b.shuffle(s.timed, pass)
	return s, nil
}

// shuffle puts free operations in the order --seed gives this pass.
func (b *builder) shuffle(ops []*op, pass int) {
	newRNG(deriveSeed(b.seed, "bench/order", pass)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// miss: the pool's platforms of this pass, never seen before, in the order
// --seed gives.
func (b *builder) miss(pass int) (*schedule, error) {
	ops, err := b.pool("miss", false, pass)
	if err != nil {
		return nil, err
	}
	for _, o := range ops {
		o.class = "miss"
	}
	b.shuffle(ops, pass)
	return &schedule{timed: ops}, nil
}

// opBackstop is the context budget the harness itself puts on an operation,
// above the deadlineMs the request carries.
const opBackstop = (planDeadlineMs + 5000) * time.Millisecond
