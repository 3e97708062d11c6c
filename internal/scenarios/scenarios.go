package scenarios

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/dynamic"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/topology"
)

// multiPortFraction is the per-send overhead fraction applied by every
// built-in family (the paper's experiments use 80% of the fastest outgoing
// link).
const multiPortFraction = 0.8

// Generator produces a platform with exactly size nodes from a seed. It must
// be deterministic: the same (size, seed) pair yields an identical platform.
type Generator func(size int, seed int64) (*platform.Platform, error)

// Scenario is one named platform family.
type Scenario struct {
	// Name is the registry key (kebab-case, stable across releases).
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// MinSize is the smallest node count the generator supports.
	MinSize int
	// DefaultSizes are the sizes swept when the caller does not specify any.
	DefaultSizes []int
	// LargeSizes is the family's large-scale sweep tier: sizes beyond the
	// defaults that the generator supports with a link count that keeps the
	// master LP tractable. Empty means the family has no large tier — e.g.
	// the complete graph or the dense random family, whose link counts (and
	// so LP column counts) grow quadratically with size.
	LargeSizes []int
	// Generate builds a platform of the given size from the seed.
	Generate Generator
	// ChurnProfile names the dynamic churn profile of the family (see
	// dynamic.ProfileNames); empty means dynamic.DefaultProfile. Fragile
	// topologies (chains, stars) use the pure-drift profile, hierarchical
	// ones the failure-heavy profile. The churn trace is part of the
	// registry contract: the same (size, seed) pair always yields a
	// byte-identical timeline (see ChurnTrace).
	ChurnProfile string
	// DefaultTraceEvents is the default churn-trace length of the family
	// (0 means DefaultChurnEvents).
	DefaultTraceEvents int
}

// DefaultChurnEvents is the trace length used when neither the sweep nor
// the scenario specifies one.
const DefaultChurnEvents = 40

// EffectiveChurnProfile returns the family's churn profile name,
// substituting the default for an empty one.
func (s Scenario) EffectiveChurnProfile() string {
	if s.ChurnProfile == "" {
		return dynamic.DefaultProfile
	}
	return s.ChurnProfile
}

// EffectiveTraceEvents returns the family's default churn-trace length,
// substituting DefaultChurnEvents for zero.
func (s Scenario) EffectiveTraceEvents() int {
	if s.DefaultTraceEvents <= 0 {
		return DefaultChurnEvents
	}
	return s.DefaultTraceEvents
}

// ChurnTraceSeed derives the trace seed of a platform seed, so that a
// platform and its churn timeline form one reproducible unit.
func ChurnTraceSeed(platformSeed int64) int64 {
	return topology.DeriveSeed(platformSeed, "churn")
}

// ChurnTrace generates the scenario's platform at the given size together
// with its deterministic churn timeline: the same (size, seed) pair yields
// a byte-identical platform and trace. The source is the broadcast source
// the trace maintains reachability for.
func ChurnTrace(s Scenario, size, source int, seed int64) (*platform.Platform, *dynamic.Trace, error) {
	p, err := s.Generate(size, seed)
	if err != nil {
		return nil, nil, err
	}
	prof, err := dynamic.ProfileByName(s.EffectiveChurnProfile())
	if err != nil {
		return nil, nil, err
	}
	tr, err := dynamic.GenerateTrace(p, source, prof, s.EffectiveTraceEvents(), ChurnTraceSeed(seed))
	if err != nil {
		return nil, nil, err
	}
	return p, tr, nil
}

// validate checks that the scenario can be registered.
func (s Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenarios: empty scenario name")
	}
	if s.Generate == nil {
		return fmt.Errorf("scenarios: scenario %q has no generator", s.Name)
	}
	if s.MinSize < 2 {
		return fmt.Errorf("scenarios: scenario %q must support at least 2 nodes", s.Name)
	}
	if len(s.DefaultSizes) == 0 {
		return fmt.Errorf("scenarios: scenario %q has no default sizes", s.Name)
	}
	for _, sz := range s.DefaultSizes {
		if sz < s.MinSize {
			return fmt.Errorf("scenarios: scenario %q default size %d below minimum %d", s.Name, sz, s.MinSize)
		}
	}
	for _, sz := range s.LargeSizes {
		if sz < s.MinSize {
			return fmt.Errorf("scenarios: scenario %q large size %d below minimum %d", s.Name, sz, s.MinSize)
		}
	}
	if s.ChurnProfile != "" {
		if _, err := dynamic.ProfileByName(s.ChurnProfile); err != nil {
			return fmt.Errorf("scenarios: scenario %q: %w", s.Name, err)
		}
	}
	if s.DefaultTraceEvents < 0 {
		return fmt.Errorf("scenarios: scenario %q has negative default trace length %d", s.Name, s.DefaultTraceEvents)
	}
	return nil
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Scenario)
)

// Register adds a scenario to the registry. Registering a name twice is an
// error; it is safe for concurrent use.
func Register(s Scenario) error {
	if err := s.validate(); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := registry[s.Name]; ok {
		return fmt.Errorf("scenarios: scenario %q already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// MustRegister is Register that panics on error (used for built-ins).
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Names returns the registered scenario names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Get returns the scenario registered under the given name.
func Get(name string) (Scenario, error) {
	mu.RLock()
	s, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("scenarios: unknown scenario %q (registered: %v)", name, Names())
	}
	return s, nil
}

// All returns every registered scenario in Names order.
func All() []Scenario {
	names := Names()
	out := make([]Scenario, 0, len(names))
	for _, name := range names {
		s, _ := Get(name)
		out = append(out, s)
	}
	return out
}

// rng returns the deterministic random stream of a generation.
func rng(seed int64) *rand.Rand { return topology.NewRNG(seed) }

// pair adds a bidirectional pair of links between a and b, each direction
// drawing an independent cost from the distribution (the convention used by
// all of the repository's topology generators).
func pair(p *platform.Platform, a, b int, d topology.BandwidthDist, r *rand.Rand) {
	p.MustAddLink(a, b, d.Cost(r))
	p.MustAddLink(b, a, d.Cost(r))
}

// RandomDensity returns the family of Table-2 random platforms at the given
// link density. The multi-port overhead fraction parameterises the per-send
// overhead derivation (0 disables it).
func RandomDensity(density, mpFraction float64) Scenario {
	return Scenario{
		Name:         fmt.Sprintf("random-d%.2f", density),
		Description:  fmt.Sprintf("random heterogeneous platform, density %.2f (paper Table 2)", density),
		MinSize:      2,
		DefaultSizes: []int{10, 20, 30, 40, 50},
		ChurnProfile: dynamic.ProfileDrift,
		Generate: func(size int, seed int64) (*platform.Platform, error) {
			cfg := topology.DefaultRandomConfig(size, density)
			cfg.MultiPortFraction = mpFraction
			return topology.Random(cfg, rng(seed))
		},
	}
}

// FromTiersConfig returns a scenario generating Tiers-like platforms from
// the given configuration, with TotalNodes overridden by the requested size.
func FromTiersConfig(name, description string, cfg topology.TiersConfig) Scenario {
	core := cfg.WANNodes + cfg.WANNodes*cfg.MANNodesPerWAN
	if core < 2 {
		core = 2
	}
	return Scenario{
		Name:         name,
		Description:  description,
		MinSize:      core,
		DefaultSizes: []int{30, 65},
		ChurnProfile: dynamic.ProfileFailures,
		Generate: func(size int, seed int64) (*platform.Platform, error) {
			c := cfg
			c.TotalNodes = size
			return topology.Tiers(c, rng(seed))
		},
	}
}

// scaledTiers generates a Tiers-like internet topology whose WAN/MAN core
// grows with the requested size.
func scaledTiers(size int, seed int64) (*platform.Platform, error) {
	if size < 8 {
		return nil, fmt.Errorf("scenarios: tiers needs at least 8 nodes, got %d", size)
	}
	wan := size / 8
	if wan < 2 {
		wan = 2
	}
	if wan > 12 {
		wan = 12
	}
	cfg := topology.TiersConfig{
		TotalNodes:        size,
		WANNodes:          wan,
		MANNodesPerWAN:    2,
		WANRedundancy:     wan / 2,
		MANRedundancy:     1,
		ExtraLinks:        size / 4,
		Bandwidth:         topology.PaperBandwidth,
		WANScale:          1,
		MANScale:          1,
		LANScale:          1,
		SliceSize:         platform.DefaultSliceSize,
		MultiPortFraction: multiPortFraction,
	}
	return topology.Tiers(cfg, rng(seed))
}

// homogeneousCluster generates a complete graph with identical link
// bandwidths: the classic homogeneous cluster on which all reasonable
// broadcast trees perform alike. The seed is accepted for interface
// uniformity but the platform carries no randomness.
func homogeneousCluster(size int, seed int64) (*platform.Platform, error) {
	if size < 2 {
		return nil, fmt.Errorf("scenarios: homogeneous cluster needs at least 2 nodes, got %d", size)
	}
	_ = seed
	p := platform.New(size)
	cost := model.FromBandwidth(100)
	for u := 0; u < size; u++ {
		p.SetNode(u, platform.Node{Name: fmt.Sprintf("P%d", u)})
		for v := u + 1; v < size; v++ {
			p.MustAddLink(u, v, cost)
			p.MustAddLink(v, u, cost)
		}
	}
	p.DeriveMultiPortOverheads(multiPortFraction)
	return p, nil
}

// clusterOfClusters generates a hierarchical platform: clusters with fast
// star-shaped internals whose front-ends are connected by a slow backbone
// chain. Unlike topology.Clusters it produces exactly size nodes by spreading
// the remainder across the first clusters.
func clusterOfClusters(size int, seed int64) (*platform.Platform, error) {
	if size < 4 {
		return nil, fmt.Errorf("scenarios: cluster-of-clusters needs at least 4 nodes, got %d", size)
	}
	r := rng(seed)
	clusters := size / 8
	if clusters < 2 {
		clusters = 2
	}
	if clusters > 8 {
		clusters = 8
	}
	intra := topology.BandwidthDist{Mean: 1000, StdDev: 100, Min: 100}
	inter := topology.BandwidthDist{Mean: 100, StdDev: 20, Min: 10}
	p := platform.New(size)
	frontends := make([]int, 0, clusters)
	start := 0
	for c := 0; c < clusters; c++ {
		count := size / clusters
		if c < size%clusters {
			count++
		}
		fe := start
		frontends = append(frontends, fe)
		p.SetNode(fe, platform.Node{Name: fmt.Sprintf("frontend%d", c)})
		for i := 1; i < count; i++ {
			p.SetNode(start+i, platform.Node{Name: fmt.Sprintf("c%dn%d", c, i)})
			pair(p, fe, start+i, intra, r)
		}
		start += count
	}
	for i := 0; i+1 < len(frontends); i++ {
		pair(p, frontends[i], frontends[i+1], inter, r)
	}
	p.DeriveMultiPortOverheads(multiPortFraction)
	return p, nil
}

// lastMile generates a bandwidth-skewed platform: a small fast core (full
// mesh) serving edge hosts over slow, asymmetric access links (fast
// downstream, much slower upstream), the shape of internet "last-mile"
// deployments.
func lastMile(size int, seed int64) (*platform.Platform, error) {
	if size < 4 {
		return nil, fmt.Errorf("scenarios: last-mile needs at least 4 nodes, got %d", size)
	}
	r := rng(seed)
	core := size / 4
	if core < 2 {
		core = 2
	}
	coreBW := topology.BandwidthDist{Mean: 1000, StdDev: 100, Min: 100}
	down := topology.BandwidthDist{Mean: 100, StdDev: 30, Min: 5}
	up := topology.BandwidthDist{Mean: 20, StdDev: 8, Min: 1}
	p := platform.New(size)
	for u := 0; u < core; u++ {
		p.SetNode(u, platform.Node{Name: fmt.Sprintf("core%d", u)})
		for v := u + 1; v < core; v++ {
			pair(p, u, v, coreBW, r)
		}
	}
	for h := core; h < size; h++ {
		gw := r.Intn(core)
		p.SetNode(h, platform.Node{Name: fmt.Sprintf("host%d", h)})
		p.MustAddLink(gw, h, down.Cost(r))
		p.MustAddLink(h, gw, up.Cost(r))
	}
	p.DeriveMultiPortOverheads(multiPortFraction)
	return p, nil
}

// gridDims returns the most square rows x cols factorisation of size
// (rows <= cols, rows the largest divisor not exceeding sqrt(size)). Prime
// sizes degenerate to a 1 x size line, which is still a valid grid.
func gridDims(size int) (rows, cols int) {
	rows = 1
	for d := 2; d <= int(math.Sqrt(float64(size))); d++ {
		if size%d == 0 {
			rows = d
		}
	}
	return rows, size / rows
}

// withOverheads wraps a topology helper so every generated platform carries
// the standard multi-port overheads.
func withOverheads(gen func(size int, r *rand.Rand) (*platform.Platform, error)) Generator {
	return func(size int, seed int64) (*platform.Platform, error) {
		p, err := gen(size, rng(seed))
		if err != nil {
			return nil, err
		}
		p.DeriveMultiPortOverheads(multiPortFraction)
		return p, nil
	}
}

// Built-in family names.
const (
	NameHomogeneous  = "homogeneous-cluster"
	NameClusters     = "cluster-of-clusters"
	NameTiers        = "tiers"
	NameStar         = "star"
	NameChain        = "chain"
	NameRing         = "ring"
	NameGrid         = "grid"
	NameRandomSparse = "random-sparse"
	NameRandomDense  = "random-dense"
	NameLastMile     = "last-mile"
)

func init() {
	sparse := RandomDensity(0.08, multiPortFraction)
	sparse.Name = NameRandomSparse
	sparse.Description = "sparse random heterogeneous platform (density 0.08, paper Table 2)"
	dense := RandomDensity(0.35, multiPortFraction)
	dense.Name = NameRandomDense
	dense.Description = "dense random heterogeneous platform (density 0.35)"

	for _, s := range []Scenario{
		{
			Name:         NameHomogeneous,
			Description:  "complete graph with identical link bandwidths",
			MinSize:      2,
			DefaultSizes: []int{8, 16, 32},
			ChurnProfile: dynamic.ProfileFlakyLinks,
			Generate:     homogeneousCluster,
		},
		{
			Name:        NameClusters,
			Description: "fast clusters joined by a slow backbone chain",
			MinSize:     4,
			// The 96-node point became affordable when the steady-state
			// master LP gained warm starts; these hierarchical families are
			// exactly where the cutting-plane master accumulates the most
			// cuts and warm starts pay off most.
			DefaultSizes: []int{16, 32, 64, 96},
			// The large tier became affordable when the master gained the
			// revised-simplex backend (lp.Revised): links grow linearly
			// (star-shaped cluster internals + backbone chain), so the LP
			// column count stays near 2n even at n=1024.
			LargeSizes:   []int{256, 512, 1024},
			ChurnProfile: dynamic.ProfileFailures,
			Generate:     clusterOfClusters,
		},
		{
			Name:         NameTiers,
			Description:  "Tiers-like WAN/MAN/LAN internet hierarchy, core scaled with size",
			MinSize:      8,
			DefaultSizes: []int{16, 32, 64, 96},
			LargeSizes:   []int{256, 512, 1024},
			ChurnProfile: dynamic.ProfileFailures,
			Generate:     scaledTiers,
		},
		{
			Name:         NameStar,
			Description:  "node 0 connected to every other node (one-port worst case)",
			MinSize:      2,
			DefaultSizes: []int{8, 16, 32},
			LargeSizes:   []int{256, 512, 1024},
			// Every link is a bridge: failures would always disconnect.
			ChurnProfile: dynamic.ProfileDrift,
			Generate: withOverheads(func(size int, r *rand.Rand) (*platform.Platform, error) {
				return topology.Star(size, topology.PaperBandwidth, r)
			}),
		},
		{
			Name:         NameChain,
			Description:  "bidirectional line 0 - 1 - ... - n-1",
			MinSize:      2,
			DefaultSizes: []int{8, 16, 32},
			LargeSizes:   []int{256, 512, 1024},
			ChurnProfile: dynamic.ProfileDrift,
			Generate: withOverheads(func(size int, r *rand.Rand) (*platform.Platform, error) {
				return topology.Chain(size, topology.PaperBandwidth, r)
			}),
		},
		{
			Name:         NameRing,
			Description:  "bidirectional ring",
			MinSize:      2,
			DefaultSizes: []int{8, 16, 32},
			// No 1024: a large size is advertised only if it completes under
			// its budget (TestRevisedLargeScenarioSizes). At n=1024 three of
			// five instances (seed 7 among them) separate some nine cuts a
			// round and stop at the cutting-plane loop's 200-round cap with
			// ErrNoConvergence — the cut loop's limit, not the LP's.
			LargeSizes:   []int{256, 512},
			ChurnProfile: dynamic.ProfileFlakyLinks,
			Generate: withOverheads(func(size int, r *rand.Rand) (*platform.Platform, error) {
				return topology.Ring(size, topology.PaperBandwidth, r)
			}),
		},
		{
			Name:         NameGrid,
			Description:  "2-D mesh, most square rows x cols factorisation of the size",
			MinSize:      2,
			DefaultSizes: []int{9, 16, 36},
			// No 1024: a large size is advertised only if it completes under
			// its budget (TestRevisedLargeScenarioSizes). At n=1024 the master
			// reaches ~7500 rows, warm pivots cost over a millisecond each
			// and the solve wall swings from 0.8 s to past 30 s with the
			// instance and with the dual phase's perturbation constants —
			// luck, not a budget — until the cut loop purges slack cuts.
			LargeSizes:   []int{256, 512},
			ChurnProfile: dynamic.ProfileFlakyLinks,
			Generate: withOverheads(func(size int, r *rand.Rand) (*platform.Platform, error) {
				rows, cols := gridDims(size)
				return topology.Grid2D(rows, cols, topology.PaperBandwidth, r)
			}),
		},
		sparse,
		dense,
		{
			Name:         NameLastMile,
			Description:  "fast full-mesh core with slow asymmetric access links",
			MinSize:      4,
			DefaultSizes: []int{12, 24, 48},
			ChurnProfile: dynamic.ProfileFailures,
			Generate:     lastMile,
		},
	} {
		MustRegister(s)
	}
}
