package platform

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
)

// DefaultSliceSize is the default size of a message slice (in the same data
// unit as link bandwidths, e.g. megabytes). The paper's experiments fix the
// slice size and weight each edge by the time needed to transfer one slice.
const DefaultSliceSize = 1.0

// Node is a processor of the platform.
type Node struct {
	// Name is an optional human-readable label.
	Name string `json:"name,omitempty"`
	// Send is the per-transfer sender occupation used under the multi-port
	// model (send_u in the paper). Under the one-port model the sender is
	// occupied for the full link time instead.
	Send model.AffineCost `json:"send"`
	// Recv is the per-transfer receiver occupation used under the multi-port
	// model (recv_v in the paper).
	Recv model.AffineCost `json:"recv"`
}

// Link is a unidirectional communication link between two processors.
// A bidirectional physical link is modeled by two opposite Links.
type Link struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Cost is the total occupation time of the link for a message of size L:
	// T(u,v)(L) = α + L·β.
	Cost model.AffineCost `json:"cost"`
}

// Platform is the target architectural platform P = (V, E): a set of
// processors and directed links with affine communication costs, together
// with the slice size used for pipelined broadcasts.
type Platform struct {
	nodes     []Node
	links     []Link
	out       [][]int // node -> link IDs leaving the node
	in        [][]int // node -> link IDs entering the node
	sliceSize float64

	// Dynamic-platform state (see delta.go). All nil/empty on platforms
	// that have never been mutated.
	linkDown []bool
	nodeDown []bool
	journal  []Delta
}

// New returns a platform with n processors, no links, and the default slice
// size. It panics if n is negative.
func New(n int) *Platform {
	if n < 0 {
		panic(fmt.Sprintf("platform: negative node count %d", n))
	}
	return &Platform{
		nodes:     make([]Node, n),
		out:       make([][]int, n),
		in:        make([][]int, n),
		sliceSize: DefaultSliceSize,
	}
}

// Errors returned by Validate and AddLink.
var (
	ErrNodeRange    = errors.New("platform: node out of range")
	ErrSelfLoop     = errors.New("platform: self loop")
	ErrInvalidCost  = errors.New("platform: invalid cost")
	ErrNotReachable = errors.New("platform: node not reachable from source")
	ErrNoNodes      = errors.New("platform: platform has no nodes")
)

// NumNodes returns the number of processors.
func (p *Platform) NumNodes() int { return len(p.nodes) }

// NumLinks returns the number of directed links.
func (p *Platform) NumLinks() int { return len(p.links) }

// SliceSize returns the message slice size L used to weight links.
func (p *Platform) SliceSize() float64 { return p.sliceSize }

// SetSliceSize sets the message slice size L. It panics if L is not
// positive.
func (p *Platform) SetSliceSize(l float64) {
	if l <= 0 || math.IsInf(l, 0) || math.IsNaN(l) {
		panic(fmt.Sprintf("platform: invalid slice size %v", l))
	}
	p.sliceSize = l
}

// Node returns the node with the given index.
func (p *Platform) Node(u int) Node { return p.nodes[u] }

// SetNode replaces the node record at index u.
func (p *Platform) SetNode(u int, n Node) { p.nodes[u] = n }

// Link returns the link with the given ID.
func (p *Platform) Link(id int) Link { return p.links[id] }

// Links returns a copy of the link list.
func (p *Platform) Links() []Link {
	out := make([]Link, len(p.links))
	copy(out, p.links)
	return out
}

// checkLink reports why a link cannot join a platform of n nodes: an endpoint
// out of range, a self loop, or an invalid cost.
func checkLink(n, from, to int, cost model.AffineCost) error {
	switch {
	case from < 0 || from >= n:
		return fmt.Errorf("%w: from=%d, n=%d", ErrNodeRange, from, n)
	case to < 0 || to >= n:
		return fmt.Errorf("%w: to=%d, n=%d", ErrNodeRange, to, n)
	case from == to:
		return fmt.Errorf("%w: node %d", ErrSelfLoop, from)
	case !cost.Valid():
		return fmt.Errorf("%w: %+v", ErrInvalidCost, cost)
	}
	return nil
}

// AddLink appends a directed link and returns its ID.
func (p *Platform) AddLink(from, to int, cost model.AffineCost) (int, error) {
	if err := checkLink(len(p.nodes), from, to, cost); err != nil {
		return -1, err
	}
	id := len(p.links)
	p.links = append(p.links, Link{From: from, To: to, Cost: cost})
	p.out[from] = append(p.out[from], id)
	p.in[to] = append(p.in[to], id)
	if p.linkDown != nil {
		p.linkDown = append(p.linkDown, false)
	}
	return id, nil
}

// MustAddLink is AddLink that panics on error.
func (p *Platform) MustAddLink(from, to int, cost model.AffineCost) int {
	id, err := p.AddLink(from, to, cost)
	if err != nil {
		panic(err)
	}
	return id
}

// AddBidirectionalLink adds two opposite links with the same cost and
// returns their IDs (forward, backward).
func (p *Platform) AddBidirectionalLink(a, b int, cost model.AffineCost) (int, int, error) {
	f, err := p.AddLink(a, b, cost)
	if err != nil {
		return -1, -1, err
	}
	r, err := p.AddLink(b, a, cost)
	if err != nil {
		return -1, -1, err
	}
	return f, r, nil
}

// OutLinkIDs returns the IDs of links leaving node u. The slice is owned by
// the platform and must not be modified.
func (p *Platform) OutLinkIDs(u int) []int { return p.out[u] }

// InLinkIDs returns the IDs of links entering node u. The slice is owned by
// the platform and must not be modified.
func (p *Platform) InLinkIDs(u int) []int { return p.in[u] }

// LinkBetween returns the ID of the first link from -> to, or -1.
func (p *Platform) LinkBetween(from, to int) int {
	if from < 0 || from >= len(p.nodes) || to < 0 || to >= len(p.nodes) {
		return -1
	}
	for _, id := range p.out[from] {
		if p.links[id].To == to {
			return id
		}
	}
	return -1
}

// HasLink reports whether a link from -> to exists.
func (p *Platform) HasLink(from, to int) bool { return p.LinkBetween(from, to) >= 0 }

// SliceTime returns the occupation time T(u,v) of the given link for one
// message slice of the platform's slice size.
func (p *Platform) SliceTime(linkID int) float64 {
	return p.links[linkID].Cost.Time(p.sliceSize)
}

// SliceTimeBetween returns T(u,v) for the first link u -> v, or +Inf if no
// such link exists.
func (p *Platform) SliceTimeBetween(u, v int) float64 {
	id := p.LinkBetween(u, v)
	if id < 0 {
		return math.Inf(1)
	}
	return p.SliceTime(id)
}

// SendTime returns the per-transfer sender occupation of node u for one
// slice (multi-port model).
func (p *Platform) SendTime(u int) float64 { return p.nodes[u].Send.Time(p.sliceSize) }

// RecvTime returns the per-transfer receiver occupation of node u for one
// slice (multi-port model).
func (p *Platform) RecvTime(u int) float64 { return p.nodes[u].Recv.Time(p.sliceSize) }

// Graph returns the platform as a weighted directed graph where the weight
// of each edge is the slice transfer time T(u,v). Edge IDs equal link IDs.
func (p *Platform) Graph() *graph.Digraph {
	g := graph.New(len(p.nodes))
	for _, l := range p.links {
		g.MustAddEdge(l.From, l.To, l.Cost.Time(p.sliceSize))
	}
	return g
}

// Density returns the edge density of the platform: the number of directed
// links divided by n·(n-1), i.e. the probability that an ordered pair of
// distinct nodes is connected (the definition used by Table 2 of the paper).
func (p *Platform) Density() float64 {
	n := len(p.nodes)
	if n < 2 {
		return 0
	}
	return float64(len(p.links)) / float64(n*(n-1))
}

// DeriveMultiPortOverheads sets, for every node u, the multi-port send
// overhead to fraction times the smallest outgoing link occupation
// (the paper's experiments use fraction = 0.8), and the receive overhead to
// fraction times the smallest incoming link occupation. Nodes without
// outgoing (resp. incoming) links keep a zero overhead.
func (p *Platform) DeriveMultiPortOverheads(fraction float64) {
	for u := range p.nodes {
		minOut := math.Inf(1)
		for _, id := range p.out[u] {
			if t := p.SliceTime(id); t < minOut {
				minOut = t
			}
		}
		if !math.IsInf(minOut, 1) {
			p.nodes[u].Send = model.Linear(fraction * minOut / p.sliceSize)
		} else {
			p.nodes[u].Send = model.AffineCost{}
		}
		minIn := math.Inf(1)
		for _, id := range p.in[u] {
			if t := p.SliceTime(id); t < minIn {
				minIn = t
			}
		}
		if !math.IsInf(minIn, 1) {
			p.nodes[u].Recv = model.Linear(fraction * minIn / p.sliceSize)
		} else {
			p.nodes[u].Recv = model.AffineCost{}
		}
	}
}

// validateStructure checks the structural invariants shared by Validate and
// ValidateLive: at least one node, valid link endpoints and costs.
func (p *Platform) validateStructure() error {
	if len(p.nodes) == 0 {
		return ErrNoNodes
	}
	for id, l := range p.links {
		if l.From < 0 || l.From >= len(p.nodes) || l.To < 0 || l.To >= len(p.nodes) {
			return fmt.Errorf("%w: link %d (%d -> %d)", ErrNodeRange, id, l.From, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("%w: link %d at node %d", ErrSelfLoop, id, l.From)
		}
		if !l.Cost.Valid() {
			return fmt.Errorf("%w: link %d", ErrInvalidCost, id)
		}
	}
	return nil
}

// Validate checks structural invariants: at least one node, valid link
// endpoints and costs, and (if source >= 0) that every node is reachable
// from the source.
func (p *Platform) Validate(source int) error {
	if err := p.validateStructure(); err != nil {
		return err
	}
	if source >= 0 {
		if source >= len(p.nodes) {
			return fmt.Errorf("%w: source=%d", ErrNodeRange, source)
		}
		g := p.Graph()
		reach := g.ReachableFrom(source, nil)
		for u, ok := range reach {
			if !ok {
				return fmt.Errorf("%w: node %d (source %d)", ErrNotReachable, u, source)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the platform.
func (p *Platform) Clone() *Platform {
	c := New(len(p.nodes))
	copy(c.nodes, p.nodes)
	c.sliceSize = p.sliceSize
	c.links = make([]Link, len(p.links))
	copy(c.links, p.links)
	for u := range p.out {
		c.out[u] = append([]int(nil), p.out[u]...)
		c.in[u] = append([]int(nil), p.in[u]...)
	}
	if p.linkDown != nil {
		c.linkDown = append([]bool(nil), p.linkDown...)
	}
	if p.nodeDown != nil {
		c.nodeDown = append([]bool(nil), p.nodeDown...)
	}
	if p.journal != nil {
		c.journal = append([]Delta(nil), p.journal...)
	}
	return c
}

// ScaleLinkCost multiplies the cost of one link by the given factor, which
// must be positive. It is used by the robustness analysis to perturb link
// performance.
func (p *Platform) ScaleLinkCost(linkID int, factor float64) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("platform: invalid scale factor %v", factor))
	}
	l := &p.links[linkID]
	l.Cost.Latency *= factor
	l.Cost.PerUnit *= factor
}

// String returns a short description of the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("Platform{nodes: %d, links: %d, density: %.3f}", len(p.nodes), len(p.links), p.Density())
}
