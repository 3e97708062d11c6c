// Package broadcast is the public façade of the repository: a library for
// building and evaluating pipelined broadcast trees on heterogeneous
// platforms, reproducing "Broadcast Trees for Heterogeneous Platforms"
// (Beaumont, Marchal, Robert, IPPS 2005 / LIP RR-2004-46).
//
// The typical workflow is:
//
//  1. obtain a Platform (generate a random or Tiers-like one, build one by
//     hand with NewPlatform/AddLink, or load one from JSON);
//  2. build a broadcast tree with one of the paper's heuristics
//     (BuildTree or the heuristics registry);
//  3. evaluate it: analytic steady-state throughput (TreeThroughput),
//     relative performance against the MTP optimum (OptimalThroughput),
//     or a slice-by-slice simulation (Simulate);
//  4. optionally run the full experiment harness (RunExperiment) to
//     regenerate the paper's figures and tables.
//
// The heavy lifting lives in the internal packages; this package only
// re-exports the stable surface.
package broadcast

import (
	"net/http"

	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/load"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/steady"
	"repro/internal/throughput"
	"repro/internal/topology"
)

// Core platform types.
type (
	// Platform is a heterogeneous target platform: processors connected by
	// directed links with affine communication costs.
	Platform = platform.Platform
	// Node is one processor of a platform.
	Node = platform.Node
	// Link is one directed communication link.
	Link = platform.Link
	// Tree is a spanning broadcast tree (out-arborescence rooted at the
	// source).
	Tree = platform.Tree
	// Routing is a broadcast schedule whose logical transfers may follow
	// multi-hop physical paths (used by the binomial heuristic).
	Routing = platform.Routing
	// AffineCost is an affine communication cost α + L·β.
	AffineCost = model.AffineCost
	// PortModel selects the communication model (one-port or multi-port).
	PortModel = model.PortModel
	// Regime identifies the broadcasting approach (STA, STP, MTP).
	Regime = model.Regime
)

// Port models and regimes (Table 1 and Section 2 of the paper).
const (
	OnePort               = model.OnePortBidirectional
	OnePortUnidirectional = model.OnePortUnidirectional
	MultiPort             = model.MultiPort

	STA = model.STA
	STP = model.STP
	MTP = model.MTP
)

// Heuristic names accepted by BuildTree and the experiment harness.
const (
	PruneSimple          = heuristics.NamePruneSimple
	PruneDegree          = heuristics.NamePruneDegree
	GrowTree             = heuristics.NameGrowTree
	Binomial             = heuristics.NameBinomial
	LPPrune              = heuristics.NameLPPrune
	LPGrowTree           = heuristics.NameLPGrowTree
	MultiportGrowTree    = heuristics.NameMultiportGrowTree
	MultiportPruneDegree = heuristics.NameMultiportPruneDegree
)

// Builder is the tree-construction interface implemented by every heuristic.
type Builder = heuristics.Builder

// RoutingBuilder is implemented by heuristics whose natural output is a
// routed schedule (the binomial heuristic).
type RoutingBuilder = heuristics.RoutingBuilder

// OptimalSolution is the optimal steady-state MTP solution: throughput and
// per-link message rates, plus cutting-plane statistics (rounds, cuts,
// warm/cold simplex pivots and the final master upper bound).
type OptimalSolution = steady.Solution

// OptimalOptions tunes the steady-state MTP solver: the simplex pivot budget
// of each master LP solve.
type OptimalOptions = steady.Options

// Tree-packing types: the primal decomposition of the optimal edge rates
// into an explicitly schedulable weighted set of broadcast trees.
type (
	// TreePacking is a weighted packing of broadcast trees realizing the
	// steady-state LP optimum: k trees with positive weights whose combined
	// per-edge rates stay within the optimal solution's rates.
	TreePacking = steady.Packing
	// PackedTree is one tree of a packing together with its steady-state
	// weight (messages per time unit routed along that tree).
	PackedTree = steady.PackedTree
	// PackOptions tunes the decomposition: the tree-count cap.
	PackOptions = pack.Options
)

// PackOptimalRates decomposes a solved steady-state solution into a
// weighted packing of broadcast trees whose total throughput matches the LP
// optimum within the packing tolerance (deterministic: the same solution
// always yields the byte-identical packing). The packing is also attached
// to sol.Packing.
func PackOptimalRates(p *Platform, source int, sol *OptimalSolution, opts *PackOptions) (*TreePacking, error) {
	return pack.Decompose(p, source, sol, opts)
}

// Evaluation types.
type (
	// Report is the per-node steady-state evaluation of a tree.
	Report = throughput.Report
	// SimulationResult is the outcome of a slice-by-slice simulation.
	SimulationResult = sim.Result
	// SimulationConfig parameterizes a simulation.
	SimulationConfig = sim.Config
	// STAResult is the outcome of an atomic-broadcast (STA) heuristic.
	STAResult = sta.Result
)

// Experiment harness types.
type (
	// ExperimentConfig controls the size and determinism of an experiment.
	ExperimentConfig = experiments.Config
	// ResultTable is the output of one experiment (one row per sweep value,
	// one column per heuristic).
	ResultTable = experiments.Table
)

// Scenario registry and sweep engine types.
type (
	// Scenario is a named platform family: a deterministic seeded generator
	// of platforms at parameterised sizes.
	Scenario = scenarios.Scenario
	// SweepConfig parameterises a scenario x size x heuristic sweep.
	SweepConfig = scenarios.SweepConfig
	// SweepReport is the full outcome of a sweep, with runs and aggregates
	// in deterministic order.
	SweepReport = scenarios.SweepReport
	// SweepRun is the outcome of one heuristic on one generated platform.
	SweepRun = scenarios.RunResult
	// SweepAggregate summarises one (scenario, size, heuristic) cell.
	SweepAggregate = scenarios.Aggregate
)

// Dynamic-platform types: mutations, churn traces and the churn engine.
type (
	// Delta is one atomic platform mutation (link drift, link down/up,
	// node crash/rejoin), applied with (*Platform).ApplyDelta.
	Delta = platform.Delta
	// ChurnTrace is a deterministic seeded timeline of platform mutations.
	ChurnTrace = dynamic.Trace
	// ChurnEvent is one timestamped mutation of a churn trace.
	ChurnEvent = dynamic.Event
	// ChurnProfile parameterizes a churn-trace generator.
	ChurnProfile = dynamic.Profile
	// ChurnConfig parameterizes a churn run (heuristic, eval model, warm vs
	// cold re-solve).
	ChurnConfig = dynamic.Config
	// ChurnReport is the per-event and per-policy outcome of a churn run.
	ChurnReport = dynamic.Report
	// SteadySession carries the warm-started steady-state master LP and the
	// accumulated cut pool of one platform across mutations.
	SteadySession = steady.Session
	// ChurnSweepResult is the condensed churn outcome attached to sweep
	// runs; ChurnSweepAggregate summarizes one (scenario, size) cell.
	ChurnSweepResult    = scenarios.ChurnResult
	ChurnSweepAggregate = scenarios.ChurnAggregate
)

// Platform mutation kinds (Delta.Kind).
const (
	DeltaScaleLink = platform.DeltaScaleLink
	DeltaLinkDown  = platform.DeltaLinkDown
	DeltaLinkUp    = platform.DeltaLinkUp
	DeltaNodeDown  = platform.DeltaNodeDown
	DeltaNodeUp    = platform.DeltaNodeUp
)

// ChurnPolicies returns the adaptation policy names compared by the churn
// engine, in report order (keep, repair, rebuild).
func ChurnPolicies() []string { return dynamic.PolicyNames() }

// ChurnProfiles returns the built-in churn profile names in sorted order.
func ChurnProfiles() []string { return dynamic.ProfileNames() }

// ChurnProfileByName returns the named churn profile (empty name = default);
// unknown names are rejected with the list of known ones.
func ChurnProfileByName(name string) (ChurnProfile, error) { return dynamic.ProfileByName(name) }

// ChurnTraceSeed derives the trace seed of a platform seed, so that a
// platform and its churn timeline form one reproducible unit.
func ChurnTraceSeed(platformSeed int64) int64 { return scenarios.ChurnTraceSeed(platformSeed) }

// GenerateChurnTrace builds a deterministic churn trace against the
// platform: mutations keep the platform broadcastable from the source and
// the source never crashes.
func GenerateChurnTrace(p *Platform, source int, prof ChurnProfile, events int, seed int64) (*ChurnTrace, error) {
	return dynamic.GenerateTrace(p, source, prof, events, seed)
}

// ScenarioChurnTrace generates the named scenario family's platform at the
// given size together with its deterministic churn timeline (the trace seed
// is derived from the platform seed; same (size, seed) -> byte-identical
// platform and trace).
func ScenarioChurnTrace(name string, size, source int, seed int64) (*Platform, *ChurnTrace, error) {
	s, err := scenarios.Get(name)
	if err != nil {
		return nil, nil, err
	}
	return scenarios.ChurnTrace(s, size, source, seed)
}

// RunChurn plays a churn trace against a private clone of the platform,
// comparing the keep/repair/rebuild policies against the incrementally
// re-solved steady-state optimum at every event.
func RunChurn(p *Platform, source int, trace *ChurnTrace, cfg ChurnConfig) (*ChurnReport, error) {
	return dynamic.Run(p, source, trace, cfg)
}

// RepairTree locally repairs a broadcast tree after platform mutations:
// orphaned subtrees are re-grafted through best residual-bandwidth live
// links, stranded nodes rewired individually. It returns the repaired tree
// and the number of reattached nodes.
func RepairTree(p *Platform, source int, t *Tree) (*Tree, int, error) {
	repaired, st, err := heuristics.RepairTree(p, source, t)
	return repaired, st.Reattached, err
}

// NewSteadySession returns a steady-state solver session over the platform:
// Resolve re-solves the optimum after mutations, reusing the warm master LP
// and accumulated cut pool whenever the mutations allow.
func NewSteadySession(p *Platform, source int, opts *OptimalOptions) *SteadySession {
	return steady.NewSession(p, source, opts)
}

// Planning-service types: the concurrent fingerprint-keyed planning engine
// behind the bcast-serve CLI.
type (
	// Fingerprint is the canonical content hash of a platform:
	// permutation-invariant and byte-stable across runs; the plan cache key.
	Fingerprint = platform.Fingerprint
	// PlanEngine is the concurrent planning engine: an LRU cache of solved
	// plans and warm solver sessions keyed on platform fingerprints, over a
	// bounded worker pool.
	PlanEngine = service.Engine
	// PlanEngineConfig tunes a PlanEngine (cache size, workers, solver).
	PlanEngineConfig = service.Config
	// PlanRequest asks for the optimal plan of a platform — or of a cached
	// platform mutated by deltas (the near-duplicate fast path).
	PlanRequest = service.PlanRequest
	// PlanResult is the engine's answer: the plan, its canonical bytes, and
	// the cache/warm-path flags.
	PlanResult = service.PlanResult
	// PlanEngineStats snapshots the cache and solver counters.
	PlanEngineStats = service.Stats
	// PlanTrace is the record of one request through the engine: its ID,
	// outcome, and ordered typed span events (lookup, admit, solve, ...).
	PlanTrace = obs.Trace
	// PlanTracer buffers finished request traces in a bounded lock-sharded
	// ring; wire one into PlanEngineConfig.Tracer to trace an engine.
	PlanTracer = obs.Tracer
	// PlanTracerOptions configure a PlanTracer: ring capacity and the opt-in
	// WallClock mode (real timestamps and per-process IDs; the default is
	// deterministic content-derived IDs with no wall-clock fields).
	PlanTracerOptions = obs.Options
	// ConcurrentPlanRequest asks the engine to schedule several broadcasts
	// with distinct sources on one shared platform, splitting the one-port
	// capacity by explicit (or equal) shares.
	ConcurrentPlanRequest = service.ConcurrentRequest
	// ConcurrentPlanSource is one broadcast of a concurrent request: its
	// source processor and capacity share.
	ConcurrentPlanSource = service.ConcurrentSource
	// ConcurrentPlanResult is the engine's combined answer: per-source
	// scaled plans plus the shared capacity ledger.
	ConcurrentPlanResult = service.ConcurrentPlan
	// ConcurrentBroadcastPlan is one broadcast of a concurrent plan.
	ConcurrentBroadcastPlan = service.ConcurrentBroadcast
)

// PlatformFingerprint returns the canonical content fingerprint of a
// platform (see platform.Fingerprint for the invariance guarantees).
func PlatformFingerprint(p *Platform) Fingerprint { return p.Fingerprint() }

// ParseFingerprint parses the hex form of a fingerprint.
func ParseFingerprint(s string) (Fingerprint, error) { return platform.ParseFingerprint(s) }

// NewPlanEngine returns a planning engine with the given configuration.
func NewPlanEngine(cfg PlanEngineConfig) *PlanEngine { return service.New(cfg) }

// NewPlanHandler returns the HTTP/JSON API of the engine (the handler served
// by bcast-serve: /v1/plan, /v1/evaluate, /v1/churn, /v1/metrics,
// /v1/trace, /metrics, /healthz).
func NewPlanHandler(e *PlanEngine) http.Handler { return service.NewHandler(e) }

// NewPlanTracer returns a trace ring buffer for PlanEngineConfig.Tracer.
// With the zero options the tracer is deterministic: content-derived trace
// IDs, no wall-clock data, snapshots sorted by ID — the same workload
// produces the byte-identical trace set at any worker count.
func NewPlanTracer(opts PlanTracerOptions) *PlanTracer { return obs.NewTracer(opts) }

// PlanMetricsText renders the engine's counters and solve-stage summaries
// as a Prometheus text exposition (version 0.0.4) — the same families the
// HTTP handler serves at GET /metrics, minus the per-route HTTP section.
func PlanMetricsText(e *PlanEngine) string {
	return service.PromText(service.NewMetrics().Snapshot(e))
}

// Load-generation types: the deterministic workload replay subsystem behind
// the bcast-load CLI (package internal/load).
type (
	// LoadMix is a named workload: phases of zipf-skewed popularity, churn
	// lineages, renumbered twins and cold-miss floods over registry
	// scenarios.
	LoadMix = load.Mix
	// LoadPhaseSpec describes one phase of a mix.
	LoadPhaseSpec = load.PhaseSpec
	// LoadSchedule is a compiled mix: fully materialized requests in
	// dependency-ordered waves, with exact expected cache outcomes.
	LoadSchedule = load.Schedule
	// LoadOptions tune a replay (workers, pacing, wall-clock section).
	LoadOptions = load.Options
	// LoadReport is the canonical replay report (BENCH_load.json):
	// byte-identical for a fixed (mix, seed) across runs and worker counts.
	LoadReport = load.Report
	// LatencyHistogram is the fixed-bucket log-scale histogram used for
	// all latency recording (exact merge, deterministic quantiles).
	LatencyHistogram = stats.Histogram
)

// LoadMixes returns the built-in workload mix names in sorted order.
func LoadMixes() []string { return load.MixNames() }

// LoadMixByName returns the named built-in workload mix.
func LoadMixByName(name string) (LoadMix, error) { return load.MixByName(name) }

// CompileLoad materializes a workload mix into a deterministic schedule.
func CompileLoad(mix LoadMix, seed int64) (*LoadSchedule, error) { return load.Compile(mix, seed) }

// RunLoad replays a compiled schedule against a fresh in-process planning
// engine (with the burst gate wired in, so singleflight counts are exact)
// and returns the canonical report. For HTTP targets and custom engines use
// package internal/load via cmd/bcast-load.
func RunLoad(sched *LoadSchedule, opts LoadOptions) (*LoadReport, error) {
	engine, gate := load.NewInProcessEngine(sched, 0)
	opts.Gate = gate
	return load.Run(engine, sched, opts)
}

// Topology generation types.
type (
	// RandomConfig describes the random platforms of the paper's Table 2.
	RandomConfig = topology.RandomConfig
	// TiersConfig describes a Tiers-like hierarchical platform.
	TiersConfig = topology.TiersConfig
	// ClusterConfig describes a cluster-of-clusters platform.
	ClusterConfig = topology.ClusterConfig
	// BandwidthDist is a truncated Gaussian bandwidth distribution.
	BandwidthDist = topology.BandwidthDist
)

// NewPlatform returns an empty platform with n processors. Add links with
// (*Platform).AddLink or (*Platform).AddBidirectionalLink.
func NewPlatform(n int) *Platform { return platform.New(n) }

// NewTree returns an empty broadcast-tree skeleton rooted at root.
func NewTree(n, root int) *Tree { return platform.NewTree(n, root) }

// Linear returns an affine cost with zero start-up and the given per-unit
// transfer time (the cost form used throughout the paper's experiments).
func Linear(perUnit float64) AffineCost { return model.Linear(perUnit) }

// FromBandwidth returns a linear cost for a link of the given bandwidth.
func FromBandwidth(bandwidth float64) AffineCost { return model.FromBandwidth(bandwidth) }

// RandomPlatform generates a random heterogeneous platform following the
// paper's Table 2 parameters (Gaussian bandwidths, connectivity guaranteed,
// multi-port overheads at 80% of the fastest outgoing link).
func RandomPlatform(nodes int, density float64, seed int64) (*Platform, error) {
	return topology.Random(topology.DefaultRandomConfig(nodes, density), topology.NewRNG(seed))
}

// GeneratePlatform generates a random platform from an explicit
// configuration.
func GeneratePlatform(cfg RandomConfig, seed int64) (*Platform, error) {
	return topology.Random(cfg, topology.NewRNG(seed))
}

// TiersPlatform generates a Tiers-like hierarchical platform from an
// explicit configuration. Tiers30Config and Tiers65Config return the presets
// used by the paper's Table 3.
func TiersPlatform(cfg TiersConfig, seed int64) (*Platform, error) {
	return topology.Tiers(cfg, topology.NewRNG(seed))
}

// Tiers30Config returns the 30-node Tiers-like preset of Table 3.
func Tiers30Config() TiersConfig { return topology.Tiers30() }

// Tiers65Config returns the 65-node Tiers-like preset of Table 3.
func Tiers65Config() TiersConfig { return topology.Tiers65() }

// ClusterPlatform generates a cluster-of-clusters platform (fast clusters
// linked by a slow backbone), the scenario motivating topology-aware
// broadcast trees.
func ClusterPlatform(cfg ClusterConfig, seed int64) (*Platform, error) {
	return topology.Clusters(cfg, topology.NewRNG(seed))
}

// DefaultClusterConfig returns a 4x8 cluster-of-clusters configuration with
// a 10x gap between intra-cluster and backbone bandwidth.
func DefaultClusterConfig() ClusterConfig { return topology.DefaultClusterConfig() }

// ScenarioNames returns the names of all registered scenario families in
// sorted order.
func ScenarioNames() []string { return scenarios.Names() }

// ScenarioByName returns the scenario family registered under the given
// name.
func ScenarioByName(name string) (Scenario, error) { return scenarios.Get(name) }

// RegisterScenario adds a custom platform family to the scenario registry;
// it then participates in sweeps like the built-in families.
func RegisterScenario(s Scenario) error { return scenarios.Register(s) }

// GenerateScenario generates a platform of the named scenario family with
// the given node count and seed. Generation is deterministic: the same
// (name, size, seed) triple yields an identical platform.
func GenerateScenario(name string, size int, seed int64) (*Platform, error) {
	s, err := scenarios.Get(name)
	if err != nil {
		return nil, err
	}
	return s.Generate(size, seed)
}

// RunSweep evaluates scenario x size x heuristic combinations across a
// worker pool and returns the deterministic sweep report.
func RunSweep(cfg SweepConfig) (*SweepReport, error) { return scenarios.Sweep(cfg) }

// Heuristics returns the canonical names of all tree-construction
// heuristics, in the presentation order of the paper.
func Heuristics() []string { return heuristics.Names() }

// OnePortHeuristics returns the heuristics compared in the paper's one-port
// experiments (Figures 4(a), 4(b), Table 3).
func OnePortHeuristics() []string { return heuristics.OnePortNames() }

// MultiPortHeuristics returns the heuristics compared in the paper's
// multi-port experiment (Figure 5).
func MultiPortHeuristics() []string { return heuristics.MultiPortNames() }

// HeuristicLabel returns the label the paper uses for a heuristic name.
func HeuristicLabel(name string) string { return heuristics.PaperLabel(name) }

// NewBuilder returns the tree builder registered under the given name.
func NewBuilder(name string) (Builder, error) { return heuristics.ByName(name) }

// BuildTree builds a spanning broadcast tree with the named heuristic.
func BuildTree(p *Platform, source int, heuristic string) (*Tree, error) {
	b, err := heuristics.ByName(heuristic)
	if err != nil {
		return nil, err
	}
	return b.Build(p, source)
}

// BuildTreeWithRates builds a spanning broadcast tree with the named
// heuristic, injecting precomputed steady-state edge rates into the LP-based
// heuristics (LPPrune, LPGrowTree) so the linear program is solved only once
// per platform. For every other heuristic it behaves like BuildTree.
func BuildTreeWithRates(p *Platform, source int, heuristic string, rates []float64) (*Tree, error) {
	switch heuristic {
	case LPPrune:
		return heuristics.LPPrune{Rates: rates}.Build(p, source)
	case LPGrowTree:
		return heuristics.LPGrowTree{Rates: rates}.Build(p, source)
	default:
		return BuildTree(p, source, heuristic)
	}
}

// BuildRouting builds the routed broadcast schedule of a heuristic that has
// one (currently only the binomial heuristic); for plain tree heuristics it
// lifts the tree into the routing representation.
func BuildRouting(p *Platform, source int, heuristic string) (*Routing, error) {
	b, err := heuristics.ByName(heuristic)
	if err != nil {
		return nil, err
	}
	if rb, ok := b.(heuristics.RoutingBuilder); ok {
		return rb.BuildRouting(p, source)
	}
	tree, err := b.Build(p, source)
	if err != nil {
		return nil, err
	}
	return platform.RoutingFromTree(tree), nil
}

// TreeThroughput returns the steady-state throughput (slices per time unit)
// of a broadcast tree under the given port model.
func TreeThroughput(p *Platform, t *Tree, m PortModel) float64 {
	return throughput.TreeThroughput(p, t, m)
}

// RoutingThroughput returns the steady-state throughput of a routed
// broadcast schedule under the given port model, accounting for link and
// node contention between logical transfers.
func RoutingThroughput(p *Platform, r *Routing, m PortModel) float64 {
	return throughput.RoutingThroughput(p, r, m)
}

// EvaluateTree returns the full per-node steady-state report of a tree.
func EvaluateTree(p *Platform, t *Tree, m PortModel) *Report {
	return throughput.Evaluate(p, t, m)
}

// STAMakespan returns the completion time of an atomic (non-pipelined)
// broadcast of a message of the given size along the tree (one-port model).
func STAMakespan(p *Platform, t *Tree, totalSize float64) float64 {
	return throughput.STAMakespan(p, t, totalSize)
}

// OptimalThroughput computes the optimal steady-state MTP throughput of the
// platform under the one-port model (the value of the paper's linear
// program (2)) together with the per-link message rates. It is the reference
// against which the heuristics' "relative performance" is measured.
func OptimalThroughput(p *Platform, source int) (*OptimalSolution, error) {
	return steady.Solve(p, source, nil)
}

// OptimalThroughputWith is OptimalThroughput with explicit solver options
// (nil options behave exactly like OptimalThroughput).
func OptimalThroughputWith(p *Platform, source int, opts *OptimalOptions) (*OptimalSolution, error) {
	return steady.Solve(p, source, opts)
}

// Simulate broadcasts the given number of slices along the tree and returns
// timing statistics; the measured steady-state throughput converges to
// TreeThroughput as the slice count grows.
func Simulate(p *Platform, t *Tree, m PortModel, slices int) (*SimulationResult, error) {
	return sim.Simulate(p, t, sim.Config{Model: m, Slices: slices})
}

// BuildSTATree builds an atomic-broadcast (STA) tree with the Fastest Node
// First heuristic for a message of the given total size and returns it with
// its greedy makespan.
func BuildSTATree(p *Platform, source int, totalSize float64) (*STAResult, error) {
	return sta.Build(p, source, totalSize, sta.FastestNodeFirst)
}

// Experiments returns the identifiers of the paper-reproduction experiments
// accepted by RunExperiment: fig4a, fig4b, fig5, table3 and two ablations.
func Experiments() []string { return experiments.ExperimentIDs() }

// RunExperiment runs one experiment of the evaluation harness and returns
// its result table. Use PaperExperimentConfig for the paper's sizes or
// QuickExperimentConfig for a fast smoke run.
func RunExperiment(id string, cfg ExperimentConfig) (*ResultTable, error) {
	return experiments.Run(id, cfg)
}

// PaperExperimentConfig returns the experiment sizes used by the paper
// (10 random configurations per cell, 100 Tiers platforms per size).
func PaperExperimentConfig() ExperimentConfig { return experiments.PaperConfig() }

// QuickExperimentConfig returns a reduced configuration for smoke tests and
// benchmarks.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// Compare builds every named heuristic on the platform and returns its
// relative performance with respect to the one-port MTP optimum, evaluating
// trees under the given port model. It is a convenience wrapper around the
// experiment harness's per-platform evaluation.
func Compare(p *Platform, source int, names []string, m PortModel) (map[string]float64, error) {
	ev, err := experiments.EvaluatePlatform(p, source, names, m)
	if err != nil {
		return nil, err
	}
	return ev.Ratio, nil
}
