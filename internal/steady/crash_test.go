package steady

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/topology"
)

// crashFixtures are small platforms of every shape the crash basis treats
// differently: a chain (the source has one tree child, whose link takes the
// source's out-cut row), a star (every destination a child of the source), a
// ring, a grid, clusters, tiers and random digraphs.
type crashFixture struct {
	name string
	p    *platform.Platform
}

func crashFixtures(t *testing.T) []crashFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	bw := topology.Uniform(1)
	var out []crashFixture
	add := func(name string, p *platform.Platform, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, crashFixture{name, p})
	}
	p, err := topology.Chain(12, bw, rng)
	add("chain", p, err)
	p, err = topology.Star(12, bw, rng)
	add("star", p, err)
	p, err = topology.Ring(16, bw, rng)
	add("ring", p, err)
	p, err = topology.Grid2D(5, 5, bw, rng)
	add("grid", p, err)
	p, err = topology.Clusters(topology.DefaultClusterConfig(), rng)
	add("clusters", p, err)
	p, err = topology.Tiers(topology.Tiers30(), rng)
	add("tiers", p, err)
	for i, cfg := range []topology.RandomConfig{topology.DefaultRandomConfig(16, 0.2), topology.DefaultRandomConfig(24, 0.4)} {
		p, err = topology.Random(cfg, rng)
		add(fmt.Sprintf("random-%d", i), p, err)
	}
	return out
}

// slackStartedSolve runs the cutting-plane loop of a fresh session whose
// first master starts from the slack basis instead of the crash basis.
func slackStartedSolve(p *platform.Platform, source int) (*Solution, error) {
	s := NewSession(p, source, nil)
	s.refreshSeparator()
	s.buildProblem()
	s.rev = lp.NewRevised(s.problem, s.opts.lpOptions())
	return s.runLoop(context.Background())
}

// TestCrashStartMatchesSlackStart: on each fixture the crash basis is
// accepted, and the first master solved from it reaches the slack-started
// optimum within 1e-9; the whole cut loop from either start ends at
// throughputs within 1e-9 of each other, both passing Certify, which checks
// the final master's duals (the port prices) against the rates.
func TestCrashStartMatchesSlackStart(t *testing.T) {
	for _, f := range crashFixtures(t) {
		name, p := f.name, f.p
		s := coldSession(p, 0)
		got, err := s.rev.Solve()
		if err != nil {
			t.Fatalf("%s: crash-started master: %v", name, err)
		}
		if st := s.rev.Stats(); st.Crashes != 1 || st.CrashRejects != 0 {
			t.Fatalf("%s: crash basis not accepted (stats %+v)", name, st)
		}
		want, err := lp.NewRevised(s.problem, nil).Solve()
		if err != nil {
			t.Fatalf("%s: slack-started master: %v", name, err)
		}
		if got.Status != lp.Optimal || want.Status != lp.Optimal ||
			math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, want.Objective) {
			t.Fatalf("%s: first master %v at %v from the crash basis, %v at %v from the slack basis",
				name, got.Status, got.Objective, want.Status, want.Objective)
		}

		crash, err := Solve(p, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slack, err := slackStartedSolve(p, 0)
		if err != nil {
			t.Fatalf("%s: slack-started loop: %v", name, err)
		}
		checkCertified(t, p, 0, crash, name+" crash start")
		checkCertified(t, p, 0, slack, name+" slack start")
		if crash.CrashRejects != 0 || slack.CrashRejects != 0 {
			t.Errorf("%s: %d / %d crash rejections", name, crash.CrashRejects, slack.CrashRejects)
		}
		if d := math.Abs(crash.Throughput - slack.Throughput); d > 1e-9*math.Max(1, slack.Throughput) {
			t.Errorf("%s: throughput %v from the crash basis, %v from the slack basis", name, crash.Throughput, slack.Throughput)
		}
		t.Logf("%s: first master %d pivots from the crash basis, %d from the slack basis", name, got.Iterations, want.Iterations)
	}
}

// TestCrashSeedsEveryRebuild: the crash basis seeds every fresh master of a
// session, on the mutated live state too — after a node crash, a link
// revival and a node rejoin, each a rebuild — and is accepted each time.
func TestCrashSeedsEveryRebuild(t *testing.T) {
	p, err := topology.Random(topology.DefaultRandomConfig(20, 0.25), topology.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p, 0, nil)
	resolve := func(label string) {
		t.Helper()
		sol, err := s.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkCertified(t, p, 0, sol, label)
		if st := s.rev.Stats(); st.Crashes != 1 || st.CrashRejects != 0 {
			t.Fatalf("%s: the rebuilt master was not crash-started (stats %+v)", label, st)
		}
	}
	resolve("initial")
	// The first node and the first link whose loss keeps every alive node
	// reachable from the source.
	keeps := func(d platform.Delta) bool {
		q := p.Clone()
		_, err := q.ApplyDelta(d)
		return err == nil && q.ValidateLive(0) == nil
	}
	node, link := -1, -1
	for u := 1; u < p.NumNodes() && node < 0; u++ {
		if keeps(platform.Delta{Kind: platform.DeltaNodeDown, Node: u}) {
			node = u
		}
	}
	for id := 0; id < p.NumLinks() && link < 0; id++ {
		if keeps(platform.Delta{Kind: platform.DeltaLinkDown, Link: id}) {
			link = id
		}
	}
	if node < 0 || link < 0 {
		t.Fatalf("fixture: node %d and link %d can fail without disconnecting the platform", node, link)
	}
	for _, d := range []platform.Delta{
		{Kind: platform.DeltaNodeDown, Node: node},
		{Kind: platform.DeltaLinkDown, Link: link},
		{Kind: platform.DeltaLinkUp, Link: link},
		{Kind: platform.DeltaNodeUp, Node: node},
	} {
		if _, err := p.ApplyDelta(d); err != nil {
			t.Fatalf("apply %v: %v", d, err)
		}
		if d.Tightening() {
			continue // a warm resolve keeps the master; resolve after the next delta
		}
		resolve(fmt.Sprint(d))
	}
	if st := s.Stats(); st.Rebuilds != 4 {
		t.Fatalf("%d rebuilds, want 4 (stats %+v)", st.Rebuilds, st)
	}
}
