package platform_test

// The reference implementations the hand-written decoder and the
// allocation-free fingerprint are checked against live here: the reflective
// encoding/json decode and the boxed-tuple hash construction they replaced,
// written against the package's public API so the registry families
// (internal/scenarios imports this package) can drive them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenarios"
)

// platformJSON is the serialized form of a Platform.
type platformJSON struct {
	Nodes     []platform.Node `json:"nodes"`
	Links     []platform.Link `json:"links"`
	SliceSize float64         `json:"sliceSize"`
}

// oracleDecode is the decode Platform.UnmarshalJSON used to be — reflective
// json.Unmarshal, then AddLink per link — plus the two rules the decoder
// gained with the rewrite: node costs must be valid, the slice size must not
// be negative.
func oracleDecode(data []byte) (*platform.Platform, error) {
	var in platformJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	if in.SliceSize < 0 {
		return nil, platform.ErrSliceSize
	}
	p := platform.New(len(in.Nodes))
	for u, nd := range in.Nodes {
		if !nd.Send.Valid() || !nd.Recv.Valid() {
			return nil, platform.ErrInvalidCost
		}
		p.SetNode(u, nd)
	}
	if in.SliceSize > 0 {
		p.SetSliceSize(in.SliceSize)
	}
	for i, l := range in.Links {
		if _, err := p.AddLink(l.From, l.To, l.Cost); err != nil {
			return nil, fmt.Errorf("platform: link %d: %w", i, err)
		}
	}
	return p, nil
}

// registryPlatforms generates every registry family at its default sizes.
func registryPlatforms(tb testing.TB) map[string]*platform.Platform {
	tb.Helper()
	out := make(map[string]*platform.Platform)
	for _, sc := range scenarios.All() {
		for _, size := range sc.DefaultSizes {
			p, err := sc.Generate(size, 7)
			if err != nil {
				tb.Fatalf("%s:%d: %v", sc.Name, size, err)
			}
			out[fmt.Sprintf("%s:%d", sc.Name, size)] = p
		}
	}
	return out
}

// renumbered returns p under a random node numbering and link order.
func renumbered(p *platform.Platform, seed int64) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(p.NumNodes())
	q := platform.New(p.NumNodes())
	q.SetSliceSize(p.SliceSize())
	for u := 0; u < p.NumNodes(); u++ {
		q.SetNode(perm[u], p.Node(u))
	}
	links := p.Links()
	for _, id := range rng.Perm(len(links)) {
		l := links[id]
		q.MustAddLink(perm[l.From], perm[l.To], l.Cost)
	}
	return q
}

// checkAgainstOracle decodes data both ways and requires the same verdict
// and, when accepted, the same platform.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleDecode(data)
	var got platform.Platform
	gotErr := got.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %q:\n  decoder: %v\n  oracle:  %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got.CanonicalEncoding(), want.CanonicalEncoding()) {
		t.Fatalf("canonical encodings differ on %q", data)
	}
	if got.SliceSize() != want.SliceSize() {
		t.Fatalf("slice size %v, oracle %v on %q", got.SliceSize(), want.SliceSize(), data)
	}
	for u := 0; u < want.NumNodes(); u++ {
		if got.Node(u).Name != want.Node(u).Name {
			t.Fatalf("node %d name %q, oracle %q on %q", u, got.Node(u).Name, want.Node(u).Name, data)
		}
	}
	// The adjacency index is the one part built without the oracle's help.
	for u := 0; u < want.NumNodes(); u++ {
		if fmt.Sprint(got.OutLinkIDs(u)) != fmt.Sprint(want.OutLinkIDs(u)) || fmt.Sprint(got.InLinkIDs(u)) != fmt.Sprint(want.InLinkIDs(u)) {
			t.Fatalf("adjacency of node %d differs on %q", u, data)
		}
	}
}

// decodeCorpus is the hand-picked part of the grammar: each entry is decoded
// by TestDecodeMatchesOracle and seeds FuzzPlatformDecode.
var decodeCorpus = []string{
	`{"nodes":[{},{}],"links":[{"from":0,"to":1,"cost":{"latency":0,"perUnit":1}}],"sliceSize":1}`,
	// key order, white space, unknown members of every type
	` { "sliceSize" : 2.5 , "links" : [ { "cost" : { "perUnit" : 1e-3 } , "to" : 1 , "from" : 0 } ] , "nodes" : [ { } , { } ] } `,
	"{\"x\":[1,{\"y\":[true,false,null,\"s\\n\\u00e9\"]}],\"nodes\":[{\"z\":{}},{}],\t\"links\":[],\r\n\"w\":-0.5e+3}",
	// null at every level
	`null`, `{"nodes":null,"links":null,"sliceSize":null}`,
	`{"nodes":[null,{"name":null,"send":null,"recv":{"latency":null}}],"links":[{"from":1,"to":0,"cost":null}]}`,
	// names: escapes, surrogates, invalid UTF-8, non-ASCII
	`{"nodes":[{"name":"a\"b\\c\/d\b\f\n\r\t"},{"name":"\u00e9\ud83d\ude00\ud800x"},{"name":"é` + "\xff" + `"}]}`,
	// keys: case folding, escapes, the Kelvin sign and the long s
	`{"NODES":[{"Name":"n","SEND":{"LATENCY":1,"perunit":2}},{}],"Links":[{"FROM":1,"To":0,"cosT":{"PERUNIT":3}}],"SLICESIZE":4}`,
	`{"n\u006fdes":[{"\u0073end":{"latency":1}}],"lin` + "\u212a" + `s":[],"` + "\u017f" + `liceSize":3}`,
	// repeated members: merged, truncated, reset, grown again
	`{"nodes":[{"send":{"latency":1}},{"name":"b"},{"name":"c"}],"nodes":[{"send":{"perUnit":2}}],"nodes":[{},{},{}]}`,
	`{"nodes":[{},{}],"links":[{"from":0,"to":1},{"from":1,"to":0}],"links":[],"links":[{"to":1}]}`,
	`{"sliceSize":3,"sliceSize":null}`, `{"nodes":[{"send":{"latency":1,"latency":2},"send":{"perUnit":3}}]}`,
	// numbers
	`{"sliceSize":1e400}`, `{"sliceSize":1e-400}`, `{"sliceSize":-0}`, `{"sliceSize":-2}`, `{"sliceSize":0}`,
	`{"sliceSize":01}`, `{"sliceSize":1.}`, `{"sliceSize":.5}`, `{"sliceSize":1e}`, `{"sliceSize":-}`, `{"sliceSize":+1}`,
	`{"nodes":[{},{}],"links":[{"from":0.5,"to":1}]}`, `{"nodes":[{},{}],"links":[{"from":1e0,"to":0}]}`,
	`{"nodes":[{},{}],"links":[{"from":-0,"to":1}]}`, `{"nodes":[{},{}],"links":[{"from":99999999999999999999,"to":1}]}`,
	// validation
	`{"nodes":[{"send":{"latency":-5,"perUnit":-1}},{}]}`, `{"nodes":[{},{"recv":{"perUnit":-1}}]}`,
	`{"nodes":[{},{}],"links":[{"from":0,"to":0}]}`, `{"nodes":[{},{}],"links":[{"from":0,"to":2}]}`,
	`{"nodes":[{},{}],"links":[{"from":-1,"to":1}]}`, `{"nodes":[{},{}],"links":[{"from":0,"to":1,"cost":{"perUnit":-1}}]}`,
	// type mismatches
	`[]`, `1`, `"s"`, `true`, `{"nodes":{}}`, `{"nodes":[1]}`, `{"nodes":[[]]}`, `{"links":"x"}`, `{"sliceSize":"1"}`,
	`{"sliceSize":true}`, `{"nodes":[{"name":1}]}`, `{"nodes":[{"send":1}]}`, `{"nodes":[{"send":{"latency":"1"}}]}`,
	`{"nodes":[{},{}],"links":[{"from":"0","to":1}]}`, `{"nodes":[{},{}],"links":[{"from":[],"to":1}]}`,
	// syntax
	``, ` `, `{`, `{"nodes":`, `{"nodes":[}`, `{"nodes":[{},]}`, `{"nodes":[,{}]}`, `{,}`, `{"a":1,}`, `{"a" 1}`, `{a:1}`,
	`{"a":1}}`, `{"a":1} x`, `{} {}`, `nul`, `nulls`, `{"a":tru}`, `{"a":"\x"}`, `{"a":"\u12g4"}`, `{"a":"` + "\x01" + `"}`,
	`{"a":"unterminated`, `{"a\`, "{\"a\":1}\x00", `{"a":[1 2]}`, `{"a":{"b":1 "c":2}}`,
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
}

func TestDecodeMatchesOracle(t *testing.T) {
	for _, doc := range decodeCorpus {
		checkAgainstOracle(t, []byte(doc))
	}
	for name, p := range registryPlatforms(t) {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstOracle(t, data)
	}
}

// FuzzPlatformDecode holds the hand-written decoder to the reflective one:
// both reject, or both accept and build the same platform.
func FuzzPlatformDecode(f *testing.F) {
	for _, doc := range decodeCorpus {
		f.Add([]byte(doc))
	}
	for _, p := range registryPlatforms(f) {
		if p.NumNodes() > 24 {
			continue // the small members of each family mutate faster
		}
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, data) })
}

// TestDecodeMember checks the request-body entry point: the platform member
// is decoded as UnmarshalJSON decodes it and cut out of what is handed back,
// and everything the single pass does not cover is declined.
func TestDecodeMember(t *testing.T) {
	doc := `{"nodes":[{"name":"a"},{}],"links":[{"from":0,"to":1,"cost":{"perUnit":2}}],"sliceSize":3}`
	want, err := oracleDecode([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	p, rest := platform.DecodeMember([]byte(` {"source":1,"Platform": `+doc+` ,"x":[{}]} trailing`), "platform")
	if p == nil || !bytes.Equal(p.CanonicalEncoding(), want.CanonicalEncoding()) || p.Node(0).Name != "a" {
		t.Fatalf("platform member decoded to %v, want %v", p, want)
	}
	if got, want := string(rest), ` {"source":1,"Platform": null ,"x":[{}]} trailing`; got != want {
		t.Errorf("rest = %q, want %q", got, want)
	}
	for _, body := range []string{
		``, `null`, `[` + doc + `]`, `{"source":1}`, `{"platform":null}`, `{"platform":[` + doc + `]}`,
		`{"platform":` + doc + `,"platform":` + doc + `}`, `{"platform":` + doc + `,"x":tru}`, `{"platform":` + doc,
		`{"platform":{"nodes":[{},{}],"links":[{"from":0,"to":0}]}}`,
	} {
		if p, rest := platform.DecodeMember([]byte(body), "platform"); p != nil || rest != nil {
			t.Errorf("DecodeMember(%q) = %v, %q, want it declined", body, p, rest)
		}
	}
}

// TestDecodeRejectsInvalidPlatforms pins the sentinels of the two validation
// rules the reflective decode lacked.
func TestDecodeRejectsInvalidPlatforms(t *testing.T) {
	for doc, want := range map[string]error{
		`{"nodes":[{"send":{"latency":-5,"perUnit":-1}},{}],"links":[{"from":0,"to":1,"cost":{"perUnit":1}}]}`: platform.ErrInvalidCost,
		`{"nodes":[{},{"recv":{"latency":-1}}]}`: platform.ErrInvalidCost,
		`{"nodes":[{},{}],"sliceSize":-2}`:       platform.ErrSliceSize,
	} {
		var p platform.Platform
		if err := json.Unmarshal([]byte(doc), &p); !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", doc, err, want)
		}
	}
	var p platform.Platform
	if err := json.Unmarshal([]byte(`{"nodes":[{},{}],"sliceSize":0}`), &p); err != nil || p.SliceSize() != platform.DefaultSliceSize {
		t.Errorf("zero slice size: err %v, slice size %v, want the default", err, p.SliceSize())
	}
}

// TestJSONRoundTripRegistry is marshal → unmarshal → marshal on every
// registry family: the two encodings must be byte-identical, and so must the
// exact and permutation-invariant identities.
func TestJSONRoundTripRegistry(t *testing.T) {
	for name, p := range registryPlatforms(t) {
		first, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var q platform.Platform
		if err := json.Unmarshal(first, &q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := json.Marshal(&q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: re-encoding differs from the first encoding", name)
		}
		if !bytes.Equal(p.CanonicalEncoding(), q.CanonicalEncoding()) || p.Fingerprint() != q.Fingerprint() {
			t.Errorf("%s: identity changed across the round trip", name)
		}
	}
}

// TestDecodedAdjacencyDoesNotAlias grows every adjacency list of a decoded
// platform: the lists share one backing array, so an append that did not
// reallocate would overwrite a neighbour's links.
func TestDecodedAdjacencyDoesNotAlias(t *testing.T) {
	p := registryPlatforms(t)["ring:8"]
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q platform.Platform
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < p.NumNodes(); u++ {
		v := (u + 3) % p.NumNodes()
		cost := p.Link(0).Cost
		p.MustAddLink(u, v, cost)
		q.MustAddLink(u, v, cost)
	}
	for u := 0; u < p.NumNodes(); u++ {
		if fmt.Sprint(q.OutLinkIDs(u)) != fmt.Sprint(p.OutLinkIDs(u)) || fmt.Sprint(q.InLinkIDs(u)) != fmt.Sprint(p.InLinkIDs(u)) {
			t.Fatalf("node %d: adjacency out %v in %v, want out %v in %v", u, q.OutLinkIDs(u), q.InLinkIDs(u), p.OutLinkIDs(u), p.InLinkIDs(u))
		}
	}
}

// oracleFingerprint is the fingerprint construction before its allocation
// diet: every tuple streamed field by field through its own sha256.New, a
// fresh signature slice per node per round, classes counted in a map.
func oracleFingerprint(p *platform.Platform) platform.Fingerprint {
	type fp = platform.Fingerprint
	f64 := func(v float64) []byte {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		return buf[:]
	}
	flag := func(b bool) []byte {
		if b {
			return []byte{1}
		}
		return []byte{0}
	}
	hashTuple := func(tag byte, fields ...[]byte) fp {
		h := sha256.New()
		h.Write([]byte{tag})
		for _, fld := range fields {
			h.Write(fld)
		}
		var out fp
		h.Sum(out[:0])
		return out
	}
	sortFPs := func(fs []fp) {
		sort.Slice(fs, func(i, j int) bool { return bytes.Compare(fs[i][:], fs[j][:]) < 0 })
	}
	countClasses := func(colors []fp) int {
		seen := make(map[fp]struct{}, len(colors))
		for _, c := range colors {
			seen[c] = struct{}{}
		}
		return len(seen)
	}

	n := p.NumNodes()
	colors := make([]fp, n)
	for u := 0; u < n; u++ {
		nd := p.Node(u)
		colors[u] = hashTuple('N', f64(nd.Send.Latency), f64(nd.Send.PerUnit), f64(nd.Recv.Latency), f64(nd.Recv.PerUnit), flag(p.NodeAlive(u)))
	}
	prevClasses := countClasses(colors)
	next := make([]fp, n)
	for round := 0; round < n; round++ {
		for u := 0; u < n; u++ {
			var sigs []fp
			for _, id := range p.OutLinkIDs(u) {
				l := p.Link(id)
				sigs = append(sigs, hashTuple('>', f64(l.Cost.Latency), f64(l.Cost.PerUnit), flag(p.LinkAlive(id)), colors[l.To][:]))
			}
			for _, id := range p.InLinkIDs(u) {
				l := p.Link(id)
				sigs = append(sigs, hashTuple('<', f64(l.Cost.Latency), f64(l.Cost.PerUnit), flag(p.LinkAlive(id)), colors[l.From][:]))
			}
			sortFPs(sigs)
			h := sha256.New()
			h.Write(colors[u][:])
			for _, s := range sigs {
				h.Write(s[:])
			}
			h.Sum(next[u][:0])
		}
		colors, next = next, colors
		classes := countClasses(colors)
		if classes == prevClasses {
			break
		}
		prevClasses = classes
	}

	h := sha256.New()
	h.Write(f64(p.SliceSize()))
	var cnt [8]byte
	binary.BigEndian.PutUint64(cnt[:], uint64(n))
	h.Write(cnt[:])
	binary.BigEndian.PutUint64(cnt[:], uint64(p.NumLinks()))
	h.Write(cnt[:])
	sorted := append([]fp(nil), colors...)
	sortFPs(sorted)
	for _, c := range sorted {
		h.Write(c[:])
	}
	linkSigs := make([]fp, p.NumLinks())
	for id := range linkSigs {
		l := p.Link(id)
		linkSigs[id] = hashTuple('L', colors[l.From][:], colors[l.To][:], f64(l.Cost.Latency), f64(l.Cost.PerUnit), flag(p.LinkAlive(id)))
	}
	sortFPs(linkSigs)
	for _, s := range linkSigs {
		h.Write(s[:])
	}
	var out fp
	h.Sum(out[:0])
	return out
}

// TestFingerprintMatchesOldConstruction is the differential behind "values
// byte-identical": every registry family at its default sizes, a renumbered
// twin of each, and a copy with a link and a node down so the alive flags
// take part.
func TestFingerprintMatchesOldConstruction(t *testing.T) {
	for name, p := range registryPlatforms(t) {
		want := oracleFingerprint(p)
		if got := p.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, old construction %s", name, got, want)
		}
		twin := renumbered(p, 11)
		if got := twin.Fingerprint(); got != want || oracleFingerprint(twin) != want {
			t.Errorf("%s: renumbered twin fingerprints %s, want %s", name, got, want)
		}
		down := p.Clone()
		for _, d := range []platform.Delta{
			{Kind: platform.DeltaLinkDown, Link: p.NumLinks() / 2},
			{Kind: platform.DeltaNodeDown, Node: p.NumNodes() - 1},
		} {
			if _, err := down.ApplyDelta(d); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got, want := down.Fingerprint(), oracleFingerprint(down); got != want {
			t.Errorf("%s with a link and a node down: fingerprint %s, old construction %s", name, got, want)
		}
	}
}

// benchBody is the cluster-of-clusters:96 platform the serve-hit numbers in
// CHANGES.md are quoted on, and its 21 KB encoding.
func benchBody(b *testing.B) (*platform.Platform, []byte) {
	sc, err := scenarios.Get("cluster-of-clusters")
	if err != nil {
		b.Fatal(err)
	}
	p, err := sc.Generate(96, 7)
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	return p, data
}

func BenchmarkPlatformDecode(b *testing.B) {
	_, data := benchBody(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p platform.Platform
		if err := p.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkFP platform.Fingerprint

func BenchmarkFingerprint(b *testing.B) {
	p, _ := benchBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFP = p.Fingerprint()
	}
}
