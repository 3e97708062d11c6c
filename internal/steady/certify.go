package steady

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/platform"
)

// certTol is Certify's relative bar.
const certTol = 1e-6

// Certify checks a solution against the model of the platform's current
// live state, trusting nothing an LP reported, and returns the interval it
// proves around the optimal throughput:
//
//   - lower: the rates must be 0 on dead links and >= 0 elsewhere (round-off
//     down to −1e-6·Throughput counts as 0), load every port at most 1+1e-6
//     and carry Throughput·(1−1e-6) to every alive destination; lower is the
//     smallest destination flow over the busiest port's load (>= 1).
//   - upper: rates delivering TP dominate TP times a convex combination of
//     broadcast trees (the paper's Section 4.1 theorem), so for port prices
//     a, b >= 0 (PortDual) and c_e = t_e·(a_u + b_v), TP·min_T c(T) <=
//     Σ_e n_e·c_e <= Σ(a+b); one Chu-Liu/Edmonds run gives upper = Σ(a+b)/
//     min_T c(T). Throughput must match upper within 1e-6 both ways (a
//     GapTolerance above 1e-6 can fail that); prices bounding nothing fail.
func Certify(p *platform.Platform, source int, sol *Solution) (lower, upper float64, err error) {
	if err := p.ValidateLive(source); err != nil {
		return 0, 0, err
	}
	if p.NumAliveNodes() == 1 {
		return math.Inf(1), math.Inf(1), nil // nothing to deliver
	}
	n, tp := p.NumNodes(), sol.Throughput
	if len(sol.EdgeRate) != p.NumLinks() || len(sol.PortDual) != 2*n || !(tp >= 0) {
		return 0, 0, fmt.Errorf("steady: certify: throughput %v, %d rates and %d port prices for %d links and %d nodes",
			tp, len(sol.EdgeRate), len(sol.PortDual), p.NumLinks(), n)
	}

	nw := maxflow.New(n)
	for id, rate := range sol.EdgeRate {
		if !(rate >= -certTol*tp) || rate != 0 && !p.LinkLive(id) {
			return 0, 0, fmt.Errorf("steady: certify: rate %v on link %d (live %v)", rate, id, p.LinkLive(id))
		}
		l := p.Link(id)
		nw.AddEdge(l.From, l.To, rate) // a negative capacity counts as 0
	}
	busiest := 1.0
	for port, busy := range portLoads(p, sol.EdgeRate) {
		if busy > 1+certTol {
			return 0, 0, fmt.Errorf("steady: certify: one-port occupation %v at node %d", busy, port%n)
		}
		busiest = max(busiest, busy)
	}
	supported := tp
	for w := 0; w < n; w++ {
		if w == source || !p.NodeAlive(w) {
			continue
		}
		nw.Reset()
		flow := nw.MaxFlowBounded(source, w, tp)
		if flow < tp*(1-certTol) {
			return 0, 0, fmt.Errorf("steady: certify: edge rates carry %v to node %d, reported throughput %v", flow, w, tp)
		}
		supported = min(supported, flow)
	}

	var prices float64
	for port, y := range sol.PortDual {
		if !(y >= 0) || math.IsInf(y, 1) {
			return 0, 0, fmt.Errorf("steady: certify: price %v on the port of node %d", y, port%n)
		}
		prices += y
	}
	var live []graph.Edge
	var cost []float64
	for id := 0; id < p.NumLinks(); id++ {
		if l := p.Link(id); p.LinkLive(id) {
			live = append(live, graph.Edge{ID: id, From: l.From, To: l.To})
			cost = append(cost, p.SliceTime(id)*(sol.PortDual[l.From]+sol.PortDual[n+l.To]))
		}
	}
	_, cheapest, ok := graph.NewMinArborescence(n, source, p.NodeAlive, live).Solve(cost)
	if !ok || !(cheapest > 0) {
		return 0, 0, fmt.Errorf("steady: certify: port prices bound nothing (cheapest arborescence costs %v)", cheapest)
	}
	lower, upper = supported/busiest, prices/cheapest
	if tp > upper*(1+certTol) || upper > tp*(1+certTol) {
		err = fmt.Errorf("steady: certify: throughput %v not within 1e-6 of the certified bound %v", tp, upper)
	}
	return lower, upper, err
}

// portLoads returns the one-port occupation of every port under the rates,
// negative rates counting as 0: the send port of node u at u, its receive
// port at n+u.
func portLoads(p *platform.Platform, rates []float64) []float64 {
	n := p.NumNodes()
	load := make([]float64, 2*n)
	for id, rate := range rates {
		l := p.Link(id)
		busy := max(rate, 0) * p.SliceTime(id)
		load[l.From] += busy
		load[n+l.To] += busy
	}
	return load
}

// occRow is a one-port occupation row of a master or of LP (2): its
// constraint index and its port (u: node u's send port; n+u: its receive).
type occRow struct{ row, port int }

// addOccupationRows appends node u's one-port occupation rows — receive port,
// then send port — over its live links at their current slice times, the
// rate of link id being variable nVar0+id; a port without live links gets no
// row. It returns occ with the new rows.
func addOccupationRows(problem *lp.Problem, occ []occRow, p *platform.Platform, u, nVar0 int) []occRow {
	n := p.NumNodes()
	for _, port := range [2]struct {
		ids []int
		at  int
	}{{p.InLinkIDs(u), n + u}, {p.OutLinkIDs(u), u}} {
		terms := make([]lp.Term, 0, len(port.ids))
		for _, id := range port.ids {
			if p.LinkLive(id) {
				terms = append(terms, lp.Term{Var: nVar0 + id, Coeff: p.SliceTime(id)})
			}
		}
		if len(terms) > 0 {
			occ = append(occ, occRow{row: problem.NumConstraints(), port: port.at})
			problem.AddSparseConstraint(terms, lp.LE, 1)
		}
	}
	return occ
}

// portDual sums the duals of the occupation rows into per-port prices,
// clamped at 0 (see Solution.PortDual); nil without duals.
func portDual(n int, duals []float64, occ []occRow) []float64 {
	if duals == nil {
		return nil
	}
	prices := make([]float64, 2*n)
	for _, o := range occ {
		prices[o.port] += duals[o.row]
	}
	for i, y := range prices {
		prices[i] = max(y, 0)
	}
	return prices
}
