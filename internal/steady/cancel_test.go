package steady

import (
	"context"
	"errors"
	"testing"

	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/topology"
)

// TestResolveContextCanceledThenResolves cancels a session resolve and
// verifies both halves of the cancellation contract: the error wraps
// lp.ErrCanceled (not ErrLPFailed, so callers can tell a deadline from
// solver trouble), and the session recovers — the next uncanceled resolve
// runs cold from a consistent state and matches the cold oracle.
func TestResolveContextCanceledThenResolves(t *testing.T) {
	p, err := topology.Random(topology.DefaultRandomConfig(12, 0.3), topology.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p, 0, sessionOpts())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.ResolveContext(ctx)
	if !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("canceled resolve = %v, want lp.ErrCanceled", err)
	}
	if errors.Is(err, ErrLPFailed) {
		t.Fatalf("canceled resolve %v must not read as ErrLPFailed", err)
	}

	sol, err := s.ResolveContext(context.Background())
	if err != nil {
		t.Fatalf("resolve after cancellation: %v", err)
	}
	checkCertified(t, p, 0, sol, "post-cancel")

	// The session must keep working across a mutation too (warm or rebuilt
	// — correctness is what matters after a cancellation).
	if _, err := p.ApplyDelta(platform.Delta{Kind: platform.DeltaScaleLink, Link: 0, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	sol, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	checkCertified(t, p, 0, sol, "post-cancel mutation")
}

// TestResolveContextMidStreamCancel cancels between two resolves of a live
// session: the canceled warm attempt must not poison the accumulated cut
// pool — the follow-up resolve rebuilds and stays correct.
func TestResolveContextMidStreamCancel(t *testing.T) {
	p, err := topology.Random(topology.DefaultRandomConfig(10, 0.35), topology.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p, 0, sessionOpts())
	if _, err := s.Resolve(); err != nil {
		t.Fatal(err)
	}

	if _, err := p.ApplyDelta(platform.Delta{Kind: platform.DeltaScaleLink, Link: 1, Factor: 0.25}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ResolveContext(ctx); !errors.Is(err, lp.ErrCanceled) {
		t.Fatalf("canceled mid-stream resolve = %v, want lp.ErrCanceled", err)
	}

	sol, err := s.Resolve()
	if err != nil {
		t.Fatalf("resolve after mid-stream cancellation: %v", err)
	}
	checkCertified(t, p, 0, sol, "post-mid-stream-cancel")
}
