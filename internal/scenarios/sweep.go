package scenarios

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/topology"
)

// SweepConfig parameterises a scenario x size x heuristic sweep.
type SweepConfig struct {
	// Scenarios are the registry names to sweep; empty means every
	// registered scenario.
	Scenarios []string
	// Sizes are the node counts generated for every scenario; empty means
	// each scenario's DefaultSizes.
	Sizes []int
	// Heuristics are the heuristic names evaluated on every platform; empty
	// means every registered heuristic.
	Heuristics []string
	// Repetitions is the number of platforms generated per (scenario, size)
	// cell (default 3). Each repetition derives its own seed.
	Repetitions int
	// Seed is the base seed; per-platform seeds are derived from it, the
	// scenario name, the size and the repetition index, so results are
	// reproducible bit-for-bit and independent of sweep-internal ordering.
	Seed int64
	// Source is the broadcast source processor (default 0).
	Source int
	// EvalModel is the port model under which trees are evaluated (default
	// one-port bidirectional). The reference optimum is always the one-port
	// MTP linear program, as in the paper.
	EvalModel model.PortModel
	// Workers bounds the number of platforms evaluated concurrently
	// (default: number of CPUs).
	Workers int
	// RecordTimings enables per-run wall-clock measurements. It defaults to
	// false so that sweep output is byte-for-byte deterministic.
	RecordTimings bool
	// PackTrees, when positive, adds the k-tree axis to every run: the
	// optimal edge rates are decomposed into a weighted packing of at most
	// PackTrees broadcast trees (see internal/pack) and every run row
	// carries the packed throughput, tree count, packed/LP ratio and the
	// k-tree-vs-single-tree gain.
	PackTrees int
	// Churn enables the churn dimension: every generated platform is
	// additionally played through its family's deterministic churn trace
	// (see Scenario.ChurnProfile and ChurnTrace) and the keep/repair/rebuild
	// policies are compared against the incrementally re-solved optimum. The
	// condensed outcome rides on every run row of the platform and is
	// aggregated per (scenario, size) cell in SweepReport.ChurnAggregates.
	Churn bool
	// ChurnEvents overrides the per-family default trace length (0 keeps
	// the defaults).
	ChurnEvents int
	// ChurnProfile overrides the per-family churn profile ("" keeps the
	// defaults; unknown names are rejected with the list of known ones).
	ChurnProfile string
	// ChurnHeuristic is the tree heuristic driven through the traces
	// (default lp-grow-tree).
	ChurnHeuristic string
	// Planner, when non-nil, routes the per-unit steady-state solves through
	// the given planning engine: platforms already planned (in this sweep or
	// by any earlier request against the same engine) are answered from its
	// fingerprint-keyed cache instead of being re-solved. Nil gives the
	// sweep a private engine, so repeated sweeps over the same seeds still
	// hit within one Sweep call's engine only.
	Planner *service.Engine
	// OnResult, when non-nil, is invoked once per run as results complete
	// (in completion order, not report order). Calls are serialized, never
	// concurrent.
	OnResult func(RunResult)
}

// RunResult is the outcome of evaluating one heuristic on one generated
// platform instance.
type RunResult struct {
	Scenario  string  `json:"scenario"`
	Size      int     `json:"size"`
	Rep       int     `json:"rep"`
	Seed      int64   `json:"seed"`
	Heuristic string  `json:"heuristic"`
	Nodes     int     `json:"nodes"`
	Links     int     `json:"links"`
	Density   float64 `json:"density"`
	// Optimal is the one-port MTP optimal throughput of the platform.
	Optimal float64 `json:"optimal"`
	// LPRounds, LPCuts and LPPivots describe the cutting-plane solve that
	// produced Optimal (shared by every heuristic run of the same platform):
	// rounds, generated cut constraints, and total simplex pivots, the
	// latter split into warm-started and cold pivots.
	LPRounds     int `json:"lpRounds,omitempty"`
	LPCuts       int `json:"lpCuts,omitempty"`
	LPPivots     int `json:"lpPivots,omitempty"`
	LPWarmPivots int `json:"lpWarmPivots,omitempty"`
	LPColdPivots int `json:"lpColdPivots,omitempty"`
	// Throughput is the heuristic's steady-state throughput under the
	// sweep's evaluation model.
	Throughput float64 `json:"throughput"`
	// Ratio is Throughput / Optimal (the paper's relative performance).
	Ratio float64 `json:"ratio"`
	// k-tree packing axis (only with SweepConfig.PackTrees): the packed
	// throughput, tree count and packed/Optimal ratio are per platform and
	// repeated on every heuristic row like the LP statistics; TreeGain is
	// per heuristic — the packed throughput over THIS heuristic's
	// single-tree throughput (>= 1 within tolerance, the paper's case for
	// packing trees instead of picking one).
	PackedThroughput float64 `json:"packedThroughput,omitempty"`
	PackedTrees      int     `json:"packedTrees,omitempty"`
	PackedRatio      float64 `json:"packedRatio,omitempty"`
	TreeGain         float64 `json:"treeGain,omitempty"`
	// WallNanos is the build+evaluate time (only with RecordTimings).
	WallNanos int64 `json:"wallNanos,omitempty"`
	// Error is non-empty when the generation, LP solve or heuristic failed.
	Error string `json:"error,omitempty"`
	// Churn is the condensed churn outcome of the platform (only with
	// SweepConfig.Churn; identical on every heuristic row of the platform,
	// like the LP statistics).
	Churn *ChurnResult `json:"churn,omitempty"`
}

// Aggregate summarises the repetitions of one (scenario, size, heuristic)
// cell.
type Aggregate struct {
	Scenario  string `json:"scenario"`
	Size      int    `json:"size"`
	Heuristic string `json:"heuristic"`
	// Samples is the number of successful runs aggregated.
	Samples   int     `json:"samples"`
	MeanRatio float64 `json:"meanRatio"`
	DevRatio  float64 `json:"devRatio"`
	MinRatio  float64 `json:"minRatio"`
	MaxRatio  float64 `json:"maxRatio"`
	// MeanWallNanos is the mean build+evaluate time (only with
	// RecordTimings).
	MeanWallNanos int64 `json:"meanWallNanos,omitempty"`
	// MeanPackedRatio and MeanTreeGain summarize the k-tree axis of the
	// cell (only with SweepConfig.PackTrees): mean packed/Optimal ratio and
	// mean packed/single-tree gain over the successful runs.
	MeanPackedRatio float64 `json:"meanPackedRatio,omitempty"`
	MeanTreeGain    float64 `json:"meanTreeGain,omitempty"`
	// Errors is the number of failed runs in the cell.
	Errors int `json:"errors,omitempty"`
}

// SweepMeta echoes the effective sweep parameters into the report.
type SweepMeta struct {
	Scenarios []string `json:"scenarios"`
	// Sizes records the node counts actually swept, resolved per scenario:
	// the explicitly requested sizes, or the scenario's DefaultSizes when
	// none were requested. (Defaults differ per scenario, so a single list
	// could not describe a default sweep — the report must be
	// self-describing.)
	Sizes          map[string][]int `json:"sizes"`
	Heuristics     []string         `json:"heuristics"`
	Repetitions    int              `json:"repetitions"`
	Seed           int64            `json:"seed"`
	Source         int              `json:"source"`
	EvalModel      string           `json:"evalModel"`
	PackTrees      int              `json:"packTrees,omitempty"`
	TotalRuns      int              `json:"totalRuns"`
	TotalWallNanos int64            `json:"totalWallNanos,omitempty"`
	// TotalLPPivots aggregates the master-LP simplex pivots across the
	// generated platforms (each platform counted once, not once per
	// heuristic), split into warm-started and cold pivots.
	TotalLPPivots     int `json:"totalLPPivots"`
	TotalLPWarmPivots int `json:"totalLPWarmPivots"`
	TotalLPColdPivots int `json:"totalLPColdPivots"`
	// Churn echoes the churn dimension parameters. ChurnTraces records the
	// RESOLVED profile and trace length per scenario (explicit overrides or
	// the family defaults), so the report is self-describing like Sizes;
	// the totals aggregate the steady-session work of the churn traces
	// (each platform counted once).
	Churn                   bool                      `json:"churn,omitempty"`
	ChurnHeuristic          string                    `json:"churnHeuristic,omitempty"`
	ChurnTraces             map[string]ChurnTraceMeta `json:"churnTraces,omitempty"`
	TotalChurnWarmResolves  int                       `json:"totalChurnWarmResolves,omitempty"`
	TotalChurnRebuilds      int                       `json:"totalChurnRebuilds,omitempty"`
	TotalChurnResolvePivots int                       `json:"totalChurnResolvePivots,omitempty"`
}

// ChurnTraceMeta is the resolved churn-trace shape of one swept scenario.
type ChurnTraceMeta struct {
	Profile string `json:"profile"`
	Events  int    `json:"events"`
}

// SweepReport is the full outcome of a sweep: every run in deterministic
// order (scenario, then size, then repetition, then heuristic) plus one
// aggregate per cell in the same order.
type SweepReport struct {
	Meta       SweepMeta   `json:"meta"`
	Runs       []RunResult `json:"runs"`
	Aggregates []Aggregate `json:"aggregates"`
	// ChurnAggregates holds one churn summary per (scenario, size) cell
	// (only with SweepConfig.Churn), in sweep order.
	ChurnAggregates []ChurnAggregate `json:"churnAggregates,omitempty"`
}

// unit is one platform instance to generate and evaluate: the unit of
// parallelism of the sweep.
type unit struct {
	scenario Scenario
	size     int
	rep      int
	seed     int64
}

// UnitSeed derives the deterministic seed of one generated platform from the
// base seed, the scenario name, the size and the repetition index. The
// derivation (topology.DeriveSeed) hashes the identifying fields (rather
// than positional indices) so a platform keeps its seed when scenarios are
// added to or removed from a sweep.
func UnitSeed(base int64, scenario string, size, rep int) int64 {
	return topology.DeriveSeed(base, scenario, size, rep)
}

// resolve validates the configuration and expands it into the unit list.
func (cfg SweepConfig) resolve() ([]Scenario, [][]int, []string, error) {
	names := cfg.Scenarios
	if len(names) == 0 {
		names = Names()
	}
	scens := make([]Scenario, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, nil, nil, fmt.Errorf("scenarios: scenario %q listed twice", name)
		}
		seen[name] = true
		s, err := Get(name)
		if err != nil {
			return nil, nil, nil, err
		}
		scens = append(scens, s)
	}
	sizes := make([][]int, len(scens))
	for i, s := range scens {
		sz := cfg.Sizes
		if len(sz) == 0 {
			sz = s.DefaultSizes
		}
		for _, n := range sz {
			if n < s.MinSize {
				return nil, nil, nil, fmt.Errorf("scenarios: size %d below scenario %q minimum %d", n, s.Name, s.MinSize)
			}
		}
		sizes[i] = sz
	}
	heur := cfg.Heuristics
	if len(heur) == 0 {
		heur = heuristics.Names()
	}
	seenHeur := make(map[string]bool, len(heur))
	for _, name := range heur {
		if seenHeur[name] {
			return nil, nil, nil, fmt.Errorf("scenarios: heuristic %q listed twice", name)
		}
		seenHeur[name] = true
		if _, err := heuristics.ByName(name); err != nil {
			return nil, nil, nil, err
		}
	}
	return scens, sizes, heur, nil
}

// Sweep generates and evaluates every scenario x size x repetition platform
// of the configuration across a worker pool, evaluating every requested
// heuristic on each platform (the steady-state LP is solved once per
// platform and shared by the LP-based heuristics). The returned report lists
// runs and aggregates in deterministic order regardless of worker count.
func Sweep(cfg SweepConfig) (*SweepReport, error) {
	scens, sizes, heur, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	churn, err := cfg.resolveChurn()
	if err != nil {
		return nil, err
	}
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 3
	}
	if cfg.Planner == nil {
		// Plan-only workload: retained warm-session masters would be dead
		// weight on a private per-sweep engine, so drop them after each
		// solve.
		cfg.Planner = service.New(service.Config{Workers: cfg.Workers, DisableSessions: true})
	}

	var units []unit
	for i, s := range scens {
		for _, size := range sizes[i] {
			for rep := 0; rep < cfg.Repetitions; rep++ {
				units = append(units, unit{
					scenario: s,
					size:     size,
					rep:      rep,
					seed:     UnitSeed(cfg.Seed, s.Name, size, rep),
				})
			}
		}
	}

	//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
	start := time.Now()
	perUnit := parallel.MapStream(len(units), cfg.Workers, func(i int) []RunResult {
		return evaluateUnit(cfg, churn, units[i], heur)
	}, func(_ int, runs []RunResult) {
		if cfg.OnResult != nil {
			for _, r := range runs {
				cfg.OnResult(r)
			}
		}
	})

	effectiveSizes := make(map[string][]int, len(scens))
	for i, s := range scens {
		effectiveSizes[s.Name] = append([]int(nil), sizes[i]...)
	}
	report := &SweepReport{
		Meta: SweepMeta{
			Scenarios:   scenarioNames(scens),
			Sizes:       effectiveSizes,
			Heuristics:  heur,
			Repetitions: cfg.Repetitions,
			Seed:        cfg.Seed,
			Source:      cfg.Source,
			EvalModel:   cfg.EvalModel.String(),
			PackTrees:   cfg.PackTrees,
		},
	}
	if cfg.Churn {
		report.Meta.Churn = true
		report.Meta.ChurnHeuristic = churn.heuristic
		report.Meta.ChurnTraces = make(map[string]ChurnTraceMeta, len(scens))
		for _, s := range scens {
			profile, events := churn.unitParams(s)
			report.Meta.ChurnTraces[s.Name] = ChurnTraceMeta{Profile: profile, Events: events}
		}
	}
	for _, runs := range perUnit {
		report.Runs = append(report.Runs, runs...)
		if len(runs) > 0 {
			// The LP stats are per platform and repeated on every heuristic
			// run of the unit; count each platform once.
			report.Meta.TotalLPPivots += runs[0].LPPivots
			report.Meta.TotalLPWarmPivots += runs[0].LPWarmPivots
			report.Meta.TotalLPColdPivots += runs[0].LPColdPivots
			if cr := runs[0].Churn; cr != nil {
				report.Meta.TotalChurnWarmResolves += cr.WarmResolves
				report.Meta.TotalChurnRebuilds += cr.Rebuilds
				report.Meta.TotalChurnResolvePivots += cr.ResolvePivots
			}
		}
	}
	report.Meta.TotalRuns = len(report.Runs)
	if cfg.RecordTimings {
		//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
		report.Meta.TotalWallNanos = time.Since(start).Nanoseconds()
	}
	report.Aggregates = aggregate(report.Runs, scens, sizes, heur, cfg.RecordTimings)
	if cfg.Churn {
		report.ChurnAggregates = aggregateChurn(perUnit, scens, sizes)
	}
	return report, nil
}

// evaluateUnit generates one platform and evaluates every heuristic on it.
// Failures are recorded per run instead of aborting the sweep.
func evaluateUnit(cfg SweepConfig, churn churnSettings, u unit, heur []string) []RunResult {
	base := RunResult{
		Scenario: u.scenario.Name,
		Size:     u.size,
		Rep:      u.rep,
		Seed:     u.seed,
	}
	fail := func(err error) []RunResult {
		out := make([]RunResult, len(heur))
		for i, name := range heur {
			out[i] = base
			out[i].Heuristic = name
			out[i].Error = err.Error()
		}
		return out
	}

	p, err := u.scenario.Generate(u.size, u.seed)
	if err != nil {
		return fail(fmt.Errorf("generate: %w", err))
	}
	base.Nodes = p.NumNodes()
	base.Links = p.NumLinks()
	base.Density = p.Density()

	// The steady-state reference solve goes through the planning engine:
	// a platform already planned — by an earlier unit, an earlier sweep over
	// the same engine, or any service request — is answered from the
	// fingerprint-keyed cache instead of being re-solved.
	res, err := cfg.Planner.Plan(service.PlanRequest{
		Platform: p,
		Source:   cfg.Source,
		Trees:    cfg.PackTrees,
	})
	if err != nil {
		return fail(fmt.Errorf("steady-state LP: %w", err))
	}
	opt := res.Plan
	base.Optimal = opt.Throughput
	base.LPRounds = opt.LPRounds
	base.LPCuts = opt.LPCuts
	base.LPPivots = opt.LPPivots
	base.LPWarmPivots = opt.LPWarmPivots
	base.LPColdPivots = opt.LPColdPivots
	base.PackedThroughput = opt.PackedThroughput
	base.PackedTrees = opt.PackedTrees
	base.PackedRatio = opt.PackedRatio

	if cfg.Churn {
		// The churn run owns a private clone of the platform; its condensed
		// outcome rides on every heuristic row of the unit.
		base.Churn = evaluateUnitChurn(cfg, churn, u, p)
	}

	out := make([]RunResult, len(heur))
	for i, name := range heur {
		r := base
		r.Heuristic = name
		//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
		hStart := time.Now()
		tp, err := service.EvaluateHeuristic(p, cfg.Source, name, opt.EdgeRate, cfg.EvalModel)
		if cfg.RecordTimings {
			//lint:ignore detrand opt-in wall-time instrumentation (RecordTimings); excluded from canonical reports
			r.WallNanos = time.Since(hStart).Nanoseconds()
		}
		if err != nil {
			r.Error = err.Error()
		} else {
			r.Throughput = tp
			if opt.Throughput > 0 && !math.IsInf(opt.Throughput, 1) {
				r.Ratio = tp / opt.Throughput
			} else {
				r.Ratio = math.NaN()
			}
			if r.PackedThroughput > 0 && tp > 0 {
				r.TreeGain = r.PackedThroughput / tp
			}
		}
		out[i] = r
	}
	return out
}

// aggregate reduces the runs to one summary per (scenario, size, heuristic)
// cell, preserving the sweep order.
func aggregate(runs []RunResult, scens []Scenario, sizes [][]int, heur []string, timings bool) []Aggregate {
	type key struct {
		scenario  string
		size      int
		heuristic string
	}
	byCell := make(map[key][]RunResult)
	for _, r := range runs {
		k := key{r.Scenario, r.Size, r.Heuristic}
		byCell[k] = append(byCell[k], r)
	}
	var out []Aggregate
	for i, s := range scens {
		for _, size := range sizes[i] {
			for _, h := range heur {
				cell := byCell[key{s.Name, size, h}]
				agg := Aggregate{Scenario: s.Name, Size: size, Heuristic: h}
				ratios := make([]float64, 0, len(cell))
				var wall int64
				var packed, gain float64
				packedN := 0
				for _, r := range cell {
					if r.Error != "" {
						agg.Errors++
						continue
					}
					if math.IsNaN(r.Ratio) {
						// Degenerate optimum (0 or +Inf): the run is neither a
						// usable sample nor a failure; keep it out of the wall
						// mean so MeanWallNanos stays consistent with Samples.
						continue
					}
					ratios = append(ratios, r.Ratio)
					wall += r.WallNanos
					if r.PackedRatio > 0 {
						packed += r.PackedRatio
						gain += r.TreeGain
						packedN++
					}
				}
				sum := stats.Summarize(ratios)
				agg.Samples = sum.Count
				agg.MeanRatio = sum.Mean
				agg.DevRatio = sum.StdDev
				agg.MinRatio = sum.Min
				agg.MaxRatio = sum.Max
				if timings && sum.Count > 0 {
					agg.MeanWallNanos = wall / int64(sum.Count)
				}
				if packedN > 0 {
					agg.MeanPackedRatio = packed / float64(packedN)
					agg.MeanTreeGain = gain / float64(packedN)
				}
				out = append(out, agg)
			}
		}
	}
	return out
}

func scenarioNames(scens []Scenario) []string {
	names := make([]string, len(scens))
	for i, s := range scens {
		names[i] = s.Name
	}
	return names
}

// Format renders the aggregates as an aligned text table: one block per
// scenario, one row per (size, heuristic) cell.
func (rep *SweepReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d runs, %d scenarios, model %s, seed %d\n",
		rep.Meta.TotalRuns, len(rep.Meta.Scenarios), rep.Meta.EvalModel, rep.Meta.Seed)
	if rep.Meta.TotalLPPivots > 0 {
		fmt.Fprintf(&b, "master LP: %d simplex pivots (%d warm, %d cold)\n",
			rep.Meta.TotalLPPivots, rep.Meta.TotalLPWarmPivots, rep.Meta.TotalLPColdPivots)
	}
	w := 0
	for _, a := range rep.Aggregates {
		if len(a.Heuristic) > w {
			w = len(a.Heuristic)
		}
	}
	last := ""
	for _, a := range rep.Aggregates {
		if a.Scenario != last {
			fmt.Fprintf(&b, "\n%s\n", a.Scenario)
			last = a.Scenario
		}
		fmt.Fprintf(&b, "  n=%-4d %-*s  ratio %.3f ±%.3f  [%.3f, %.3f]  (%d samples",
			a.Size, w, a.Heuristic, a.MeanRatio, a.DevRatio, a.MinRatio, a.MaxRatio, a.Samples)
		if a.Errors > 0 {
			fmt.Fprintf(&b, ", %d errors", a.Errors)
		}
		b.WriteString(")")
		if a.MeanPackedRatio > 0 {
			fmt.Fprintf(&b, "  pack %.3f (gain %.3f)", a.MeanPackedRatio, a.MeanTreeGain)
		}
		if a.MeanWallNanos > 0 {
			fmt.Fprintf(&b, "  %v", time.Duration(a.MeanWallNanos).Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	if len(rep.ChurnAggregates) > 0 {
		fmt.Fprintf(&b, "\nchurn (%s, policies keep/repair/rebuild, lost = slices lost vs optimum):\n", rep.Meta.ChurnHeuristic)
		if rep.Meta.TotalChurnResolvePivots > 0 {
			fmt.Fprintf(&b, "  steady re-solves: %d warm, %d rebuilds, %d simplex pivots\n",
				rep.Meta.TotalChurnWarmResolves, rep.Meta.TotalChurnRebuilds, rep.Meta.TotalChurnResolvePivots)
		}
		for _, ca := range rep.ChurnAggregates {
			fmt.Fprintf(&b, "  %-20s n=%-4d %-12s %3d events  keep %.3f (lost %.1f)  repair %.3f (lost %.1f, %d reattached)  rebuild %.3f (lost %.1f)",
				ca.Scenario, ca.Size, ca.Profile, ca.Events,
				ca.Keep.MeanRatio, ca.Keep.LostSlices,
				ca.Repair.MeanRatio, ca.Repair.LostSlices, ca.Repair.Reattached,
				ca.Rebuild.MeanRatio, ca.Rebuild.LostSlices)
			if ca.Errors > 0 {
				fmt.Fprintf(&b, "  (%d errors)", ca.Errors)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
