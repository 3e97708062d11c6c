package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// Fingerprint is a canonical content hash of a platform: two platforms that
// describe the same communication structure — the same multiset of processors
// and links with the same costs, slice size and live state, up to a
// renumbering of nodes and links — fingerprint identically, and the hash is
// byte-stable across processes and runs. The planning service uses it to tell
// a renumbered twin of a cached platform from a new one and as the name delta
// requests address a cached platform by; the cache itself is looked up by the
// hash of CanonicalEncoding.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as a lowercase hex string.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ParseFingerprint parses the hex form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("platform: invalid fingerprint %q: %w", s, err)
	}
	if len(b) != len(f) {
		return f, fmt.Errorf("platform: invalid fingerprint %q: want %d bytes, got %d", s, len(f), len(b))
	}
	copy(f[:], b)
	return f, nil
}

// Fingerprint returns the canonical content fingerprint of the platform's
// current state.
//
// The fingerprint covers everything the steady-state solvers and heuristics
// read: node send/receive overheads, the multiset of directed links with
// their affine costs, the slice size, and the current alive/live masks. It
// deliberately ignores presentation and history: node names and the mutation
// journal do not contribute, so a platform and a mutated-then-restored copy
// of it fingerprint identically.
//
// Permutation invariance is obtained by Weisfeiler–Leman color refinement:
// nodes start from a hash of their own costs and alive flag, are iteratively
// re-hashed with the sorted multiset of their incident link signatures, and
// the final digest hashes the sorted multisets of node colors and of
// (fromColor, toColor, cost, alive) link signatures. Renumbering nodes or
// reordering link IDs therefore cannot change the result. As with any hash,
// distinct platforms may in principle collide (structurally symmetric twins
// are folded together by design); callers that need exact identity — such as
// the plan cache — use the canonical encoding (or a hash of it), which is
// numbering-exact.
func (p *Platform) Fingerprint() Fingerprint {
	n := len(p.nodes)
	colors := make([]Fingerprint, n)
	for u := range p.nodes {
		colors[u] = p.initialColor(u)
	}

	// One signature buffer and one hash-input buffer serve every node of
	// every round, sized for the largest neighbourhood.
	maxDeg := 0
	for u := range p.nodes {
		if d := len(p.out[u]) + len(p.in[u]); d > maxDeg {
			maxDeg = d
		}
	}
	sigs := make([]Fingerprint, 0, maxDeg)
	buf := make([]byte, 0, sha256.Size*(1+maxDeg))

	// Refine until the color partition stabilizes (the number of distinct
	// colors stops growing), capped at n rounds as 1-WL guarantees. sorted
	// always holds the sorted copy of colors that countClasses last made.
	sorted := make([]Fingerprint, n)
	prevClasses := countClasses(colors, sorted)
	next := make([]Fingerprint, n)
	for round := 0; round < n; round++ {
		for u := range p.nodes {
			next[u] = p.refineColor(u, colors, sigs, buf)
		}
		colors, next = next, colors
		classes := countClasses(colors, sorted)
		if classes == prevClasses {
			break
		}
		prevClasses = classes
	}

	// Final digest: slice size, counts, sorted node colors, sorted link
	// signatures expressed in color space.
	h := sha256.New()
	var hdr [24]byte
	binary.BigEndian.PutUint64(hdr[0:], math.Float64bits(p.sliceSize))
	binary.BigEndian.PutUint64(hdr[8:], uint64(n))
	binary.BigEndian.PutUint64(hdr[16:], uint64(len(p.links)))
	h.Write(hdr[:])
	for i := range sorted {
		h.Write(sorted[i][:])
	}

	linkSigs := make([]Fingerprint, len(p.links))
	for id, l := range p.links {
		var t [1 + 2*sha256.Size + 17]byte
		b := append(t[:0], 'L')
		b = append(b, colors[l.From][:]...)
		b = append(b, colors[l.To][:]...)
		b = appendCost(b, l.Cost)
		b = append(b, boolByte(p.LinkAlive(id)))
		linkSigs[id] = sha256.Sum256(b)
	}
	sortFingerprints(linkSigs)
	for i := range linkSigs {
		h.Write(linkSigs[i][:])
	}

	var out Fingerprint
	h.Sum(out[:0])
	return out
}

// initialColor hashes the node-local content: overhead costs and alive flag.
func (p *Platform) initialColor(u int) Fingerprint {
	nd := &p.nodes[u]
	var t [1 + 33]byte
	b := append(t[:0], 'N')
	b = appendCost(b, nd.Send)
	b = appendCost(b, nd.Recv)
	b = append(b, boolByte(p.NodeAlive(u)))
	return sha256.Sum256(b)
}

// refineColor re-hashes one node with the sorted signatures of its incident
// links (direction, cost, alive flag, far-end color). sigs and buf are
// scratch with room for the node's whole neighbourhood.
func (p *Platform) refineColor(u int, colors, sigs []Fingerprint, buf []byte) Fingerprint {
	sigs = sigs[:0]
	for _, id := range p.out[u] {
		l := &p.links[id]
		sigs = append(sigs, incidentSig('>', l.Cost, p.LinkAlive(id), &colors[l.To]))
	}
	for _, id := range p.in[u] {
		l := &p.links[id]
		sigs = append(sigs, incidentSig('<', l.Cost, p.LinkAlive(id), &colors[l.From]))
	}
	sortFingerprints(sigs)
	buf = append(buf[:0], colors[u][:]...)
	for i := range sigs {
		buf = append(buf, sigs[i][:]...)
	}
	return sha256.Sum256(buf)
}

// incidentSig hashes one incident link as seen from a node: direction tag,
// cost, alive flag, far-end color.
func incidentSig(tag byte, c model.AffineCost, alive bool, far *Fingerprint) Fingerprint {
	var t [1 + 17 + sha256.Size]byte
	b := append(t[:0], tag)
	b = appendCost(b, c)
	b = append(b, boolByte(alive))
	b = append(b, far[:]...)
	return sha256.Sum256(b)
}

// appendCost appends the bit-exact 16-byte encoding of a cost.
func appendCost(b []byte, c model.AffineCost) []byte {
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.Latency))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(c.PerUnit))
}

// CanonicalEncoding returns a deterministic byte encoding of the platform's
// exact current state in its own node/link numbering: slice size, node costs
// and alive flags, links with costs and alive flags. Unlike the fingerprint
// it is not permutation-invariant and costs one linear pass; the plan cache
// is keyed on its hash, which tells a true repeat request from a renumbered
// (or hash-colliding) twin that happens to share a fingerprint.
func (p *Platform) CanonicalEncoding() []byte {
	out := make([]byte, 0, 16+24*len(p.nodes)+40*len(p.links))
	var buf [8]byte
	put := func(bits uint64) {
		binary.BigEndian.PutUint64(buf[:], bits)
		out = append(out, buf[:]...)
	}
	put(math.Float64bits(p.sliceSize))
	put(uint64(len(p.nodes)))
	for u, nd := range p.nodes {
		put(math.Float64bits(nd.Send.Latency))
		put(math.Float64bits(nd.Send.PerUnit))
		put(math.Float64bits(nd.Recv.Latency))
		put(math.Float64bits(nd.Recv.PerUnit))
		out = append(out, boolByte(p.NodeAlive(u)))
	}
	put(uint64(len(p.links)))
	for id, l := range p.links {
		put(uint64(l.From))
		put(uint64(l.To))
		put(math.Float64bits(l.Cost.Latency))
		put(math.Float64bits(l.Cost.PerUnit))
		out = append(out, boolByte(p.LinkAlive(id)))
	}
	return out
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// countClasses returns the number of distinct colors; sorted (same length
// as colors) receives a sorted copy of them.
func countClasses(colors, sorted []Fingerprint) int {
	copy(sorted, colors)
	sortFingerprints(sorted)
	classes := 0
	for i := range sorted {
		if i == 0 || sorted[i] != sorted[i-1] {
			classes++
		}
	}
	return classes
}

// sortFingerprints sorts a slice of fingerprints lexicographically.
func sortFingerprints(fs []Fingerprint) {
	slices.SortFunc(fs, func(a, b Fingerprint) int { return bytes.Compare(a[:], b[:]) })
}
