package service_test

import (
	"testing"
	"time"

	"repro/internal/scenarios"
	"repro/internal/service"
	"repro/internal/topology"
)

// TestPlanWithoutLPOptionsSolvesGrid100InsideDeadline: a plan request that
// says nothing about the LP runs the one master there is, lp.Revised.
// grid:100 instance 1 of the benchmark pool is a platform a dense master
// pivots on for minutes before erroring; it must plan well inside a 5 s
// deadline with one cold master solve.
func TestPlanWithoutLPOptionsSolvesGrid100InsideDeadline(t *testing.T) {
	grid, err := scenarios.Get(scenarios.NameGrid)
	if err != nil {
		t.Fatal(err)
	}
	p, err := grid.Generate(100, topology.DeriveSeed(7, "bench/grid:100", 1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := service.New(service.Config{}).Plan(service.PlanRequest{Platform: p, Source: 0, DeadlineMs: 5000})
	if err != nil {
		t.Fatalf("after %v: %v", time.Since(start), err)
	}
	if res.Plan.Throughput <= 0 || res.Plan.LPColdSolves != 1 {
		t.Errorf("throughput %v with %d cold master solves, want a positive throughput and the first solve only", res.Plan.Throughput, res.Plan.LPColdSolves)
	}
}
