package scenarios

import (
	"fmt"
	"math"

	"repro/internal/dynamic"
	"repro/internal/heuristics"
	"repro/internal/platform"
)

// This file is the churn dimension of the sweep engine: with
// SweepConfig.Churn set, every generated platform is additionally played
// through its family's deterministic churn trace (dynamic.GenerateTrace
// seeded from the platform seed) and the three adaptation policies are
// compared against the incrementally re-solved optimum. The condensed
// per-platform outcome rides on every run row of the unit (like the LP
// statistics) and is aggregated per (scenario, size) cell.

// PolicyChurnStats condenses one policy's behaviour over one churn trace
// (or, in a ChurnAggregate, over all repetitions of a cell).
type PolicyChurnStats struct {
	// MeanRatio and MinRatio summarize the per-event ratios to the
	// re-solved optimum.
	MeanRatio float64 `json:"meanRatio"`
	MinRatio  float64 `json:"minRatio"`
	// BrokenEvents counts events after which the policy stranded an alive
	// node; Reattached totals the repair policy's parent-edge changes.
	BrokenEvents int `json:"brokenEvents,omitempty"`
	Reattached   int `json:"reattached,omitempty"`
	// LostSlices is the delivered-slice shortfall against the optimum over
	// the trace horizon.
	LostSlices float64 `json:"lostSlices"`
}

// ChurnResult is the condensed churn outcome of one generated platform.
type ChurnResult struct {
	// Profile and Events identify the trace; TraceSeed is its derived seed.
	Profile   string `json:"profile"`
	Events    int    `json:"events"`
	TraceSeed int64  `json:"traceSeed"`
	// Heuristic is the tree builder driven through the trace.
	Heuristic string `json:"heuristic"`
	// Keep, Repair and Rebuild are the per-policy outcomes.
	Keep    PolicyChurnStats `json:"keep"`
	Repair  PolicyChurnStats `json:"repair"`
	Rebuild PolicyChurnStats `json:"rebuild"`
	// WarmResolves, Rebuilds and ResolvePivots describe the steady-session
	// work across the trace (warm row-appends vs master rebuilds, total
	// simplex pivots).
	WarmResolves  int `json:"warmResolves"`
	Rebuilds      int `json:"rebuilds"`
	ResolvePivots int `json:"resolvePivots"`
	// Error is non-empty when trace generation or the churn run failed.
	Error string `json:"error,omitempty"`
}

// ChurnAggregate summarizes the churn runs of one (scenario, size) cell.
type ChurnAggregate struct {
	Scenario string `json:"scenario"`
	Size     int    `json:"size"`
	Profile  string `json:"profile"`
	Events   int    `json:"events"`
	// Samples is the number of successful churn runs aggregated; Errors the
	// failed ones.
	Samples int `json:"samples"`
	Errors  int `json:"errors,omitempty"`
	// Keep/Repair/Rebuild aggregate the per-policy stats: mean of the mean
	// ratios, min of the min ratios, summed broken/reattached counts, mean
	// lost slices.
	Keep    PolicyChurnStats `json:"keep"`
	Repair  PolicyChurnStats `json:"repair"`
	Rebuild PolicyChurnStats `json:"rebuild"`
	// WarmResolves, Rebuilds and ResolvePivots are summed over the cell.
	WarmResolves  int `json:"warmResolves"`
	Rebuilds      int `json:"rebuilds"`
	ResolvePivots int `json:"resolvePivots"`
}

// churnSettings are the resolved churn parameters of a sweep.
type churnSettings struct {
	heuristic string
	events    int    // 0 = per-scenario default
	profile   string // "" = per-scenario default
}

// resolveChurn validates the churn configuration.
func (cfg SweepConfig) resolveChurn() (churnSettings, error) {
	cs := churnSettings{
		heuristic: cfg.ChurnHeuristic,
		events:    cfg.ChurnEvents,
		profile:   cfg.ChurnProfile,
	}
	if !cfg.Churn {
		return cs, nil
	}
	if cs.heuristic == "" {
		cs.heuristic = heuristics.NameLPGrowTree
	}
	if _, err := heuristics.ByName(cs.heuristic); err != nil {
		return cs, err
	}
	if cs.events < 0 {
		return cs, fmt.Errorf("scenarios: negative churn-trace length %d", cs.events)
	}
	if cs.profile != "" {
		if _, err := dynamic.ProfileByName(cs.profile); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

// unitChurnParams resolves the effective profile name and trace length of
// one unit under the settings.
func (cs churnSettings) unitParams(s Scenario) (profile string, events int) {
	profile = cs.profile
	if profile == "" {
		profile = s.EffectiveChurnProfile()
	}
	events = cs.events
	if events <= 0 {
		events = s.EffectiveTraceEvents()
	}
	return profile, events
}

// evaluateUnitChurn generates the unit's trace and runs the churn engine on
// the already-generated platform. Failures are recorded in the result, not
// returned: one broken churn run must not abort the sweep.
func evaluateUnitChurn(cfg SweepConfig, cs churnSettings, u unit, p *platform.Platform) *ChurnResult {
	profile, events := cs.unitParams(u.scenario)
	res := &ChurnResult{
		Profile:   profile,
		Events:    events,
		TraceSeed: ChurnTraceSeed(u.seed),
		Heuristic: cs.heuristic,
	}
	prof, err := dynamic.ProfileByName(profile)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	tr, err := dynamic.GenerateTrace(p, cfg.Source, prof, events, res.TraceSeed)
	if err != nil {
		res.Error = fmt.Errorf("generate trace: %w", err).Error()
		return res
	}
	rep, err := dynamic.Run(p, cfg.Source, tr, dynamic.Config{
		Heuristic: cs.heuristic,
		Model:     cfg.EvalModel,
	})
	if err != nil {
		res.Error = fmt.Errorf("churn run: %w", err).Error()
		return res
	}
	res.Keep = condensePolicy(rep, 0)
	res.Repair = condensePolicy(rep, 1)
	res.Rebuild = condensePolicy(rep, 2)
	res.WarmResolves = rep.LP.WarmResolves
	res.Rebuilds = rep.LP.Rebuilds
	res.ResolvePivots = rep.ResolvePivots
	return res
}

// condensePolicy extracts one policy's summary from a churn report.
func condensePolicy(rep *dynamic.Report, idx int) PolicyChurnStats {
	s := rep.Summary[idx]
	return PolicyChurnStats{
		MeanRatio:    s.MeanRatio,
		MinRatio:     s.MinRatio,
		BrokenEvents: s.BrokenEvents,
		Reattached:   s.Reattached,
		LostSlices:   s.LostSlices,
	}
}

// aggregateChurn reduces the per-unit churn results to one aggregate per
// (scenario, size) cell, preserving sweep order. Runs carrying identical
// unit-level results (one per heuristic row) are counted once per unit.
func aggregateChurn(perUnit [][]RunResult, scens []Scenario, sizes [][]int) []ChurnAggregate {
	type key struct {
		scenario string
		size     int
	}
	byCell := make(map[key][]*ChurnResult)
	for _, runs := range perUnit {
		if len(runs) == 0 || runs[0].Churn == nil {
			continue
		}
		k := key{runs[0].Scenario, runs[0].Size}
		byCell[k] = append(byCell[k], runs[0].Churn)
	}
	var out []ChurnAggregate
	for i, s := range scens {
		for _, size := range sizes[i] {
			cell := byCell[key{s.Name, size}]
			if len(cell) == 0 {
				continue
			}
			agg := ChurnAggregate{Scenario: s.Name, Size: size, Profile: cell[0].Profile, Events: cell[0].Events}
			keepMin, repairMin, rebuildMin := math.Inf(1), math.Inf(1), math.Inf(1)
			for _, cr := range cell {
				if cr.Error != "" {
					agg.Errors++
					continue
				}
				agg.Samples++
				accumulate(&agg.Keep, cr.Keep, &keepMin)
				accumulate(&agg.Repair, cr.Repair, &repairMin)
				accumulate(&agg.Rebuild, cr.Rebuild, &rebuildMin)
				agg.WarmResolves += cr.WarmResolves
				agg.Rebuilds += cr.Rebuilds
				agg.ResolvePivots += cr.ResolvePivots
			}
			if agg.Samples > 0 {
				n := float64(agg.Samples)
				agg.Keep.MeanRatio /= n
				agg.Repair.MeanRatio /= n
				agg.Rebuild.MeanRatio /= n
				agg.Keep.LostSlices /= n
				agg.Repair.LostSlices /= n
				agg.Rebuild.LostSlices /= n
				agg.Keep.MinRatio = keepMin
				agg.Repair.MinRatio = repairMin
				agg.Rebuild.MinRatio = rebuildMin
			}
			out = append(out, agg)
		}
	}
	return out
}

// accumulate folds one run's policy stats into a cell aggregate.
func accumulate(dst *PolicyChurnStats, src PolicyChurnStats, min *float64) {
	dst.MeanRatio += src.MeanRatio
	dst.LostSlices += src.LostSlices
	dst.BrokenEvents += src.BrokenEvents
	dst.Reattached += src.Reattached
	if src.MinRatio < *min {
		*min = src.MinRatio
	}
}
