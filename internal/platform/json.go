package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// platformJSON is the serialized form of a Platform.
type platformJSON struct {
	Nodes     []Node  `json:"nodes"`
	Links     []Link  `json:"links"`
	SliceSize float64 `json:"sliceSize"`
}

// MarshalJSON implements json.Marshaler.
func (p *Platform) MarshalJSON() ([]byte, error) {
	return json.Marshal(platformJSON{
		Nodes:     append([]Node(nil), p.nodes...),
		Links:     append([]Link(nil), p.links...),
		SliceSize: p.sliceSize,
	})
}

// ErrSliceSize is returned when a decoded platform carries a negative slice
// size (zero or absent selects DefaultSliceSize).
var ErrSliceSize = errors.New("platform: invalid slice size")

// UnmarshalJSON implements json.Unmarshaler with one pass over data and no
// reflection: the document is checked against the JSON grammar and decoded
// into the node and link lists as it is read, then the lists are validated
// (link endpoints in range, no self loops, every cost finite and
// non-negative, slice size not negative) and the adjacency index is built.
//
// The accepted grammar is that of decoding into a struct with encoding/json:
// an object with members "nodes" (array of {"name", "send", "recv"}), "links"
// (array of {"from", "to", "cost"}) and "sliceSize", costs being
// {"latency", "perUnit"}; members in any order, keys matched exactly or
// under Unicode case folding, unknown members skipped, null leaving its
// target untouched (or the list empty), a repeated member decoded over the
// earlier one. A number where the grammar wants another type, a fractional
// or out-of-range number, and anything after the document are errors.
func (p *Platform) UnmarshalJSON(data []byte) error {
	d := decoder{data: data}
	if err := p.decode(&d); err != nil {
		return err
	}
	if d.space(); d.off != len(d.data) {
		return d.syntax("data after the top-level value")
	}
	return nil
}

// DecodeMember is the single-pass decode of a JSON object one of whose
// members is a platform — a request body. It walks the object at the start
// of data once, decoding the member called name (matched as encoding/json
// matches a struct field) as UnmarshalJSON would and checking the grammar of
// the others, and returns the platform together with a copy of data in which
// that member's value is null: what is left is small and is encoding/json's
// to decode. Bytes after the object stay in place for that decoder to judge.
//
// It returns nil, nil whenever this does not apply: data is not an object,
// the member is absent, repeated or not an object, or something is malformed
// or invalid. The caller then decodes data whole with encoding/json, whose
// verdict and error message stand.
func DecodeMember(data []byte, name string) (p *Platform, rest []byte) {
	d := decoder{data: data}
	if d.space() != '{' {
		return nil, nil
	}
	var q Platform
	start, end := -1, -1
	err := d.object(func(key []byte) error {
		if fieldIndex(key, name) != 0 {
			return d.skip()
		}
		if start >= 0 || d.space() != '{' {
			return d.mismatch("the one platform object")
		}
		start = d.off
		err := q.decode(&d)
		end = d.off
		return err
	})
	if err != nil || start < 0 {
		return nil, nil
	}
	rest = make([]byte, 0, len(data)-(end-start)+len("null"))
	rest = append(append(append(rest, data[:start]...), "null"...), data[end:]...)
	return &q, rest
}

// decode reads one platform value at the cursor, validates it and replaces
// *p with it.
func (p *Platform) decode(d *decoder) error {
	var (
		nodes []Node
		links []Link
		slice float64
	)
	err := d.object(func(key []byte) error {
		switch fieldIndex(key, "nodes", "links", "sliceSize") {
		case 0:
			return decodeList(d, &nodes, d.node)
		case 1:
			return decodeList(d, &links, d.link)
		case 2:
			return d.float(&slice)
		}
		return d.skip()
	})
	if err != nil {
		return err
	}

	n := len(nodes)
	for u := range nodes {
		if !nodes[u].Send.Valid() || !nodes[u].Recv.Valid() {
			return fmt.Errorf("platform: node %d: %w: send %+v, recv %+v", u, ErrInvalidCost, nodes[u].Send, nodes[u].Recv)
		}
	}
	// An out-of-range literal is already a decode error, so the only slice
	// size left to refuse is a negative one.
	if slice < 0 {
		return fmt.Errorf("%w: %v", ErrSliceSize, slice)
	}
	if slice == 0 {
		slice = DefaultSliceSize
	}
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for id, l := range links {
		if err := checkLink(n, l.From, l.To, l.Cost); err != nil {
			return fmt.Errorf("platform: link %d: %w", id, err)
		}
		deg[l.From]++
		deg[n+l.To]++
	}

	// Every adjacency list is carved out of one array at exactly its final
	// capacity, so a later AddLink reallocates the list it grows instead of
	// running into its neighbour.
	adj := make([]int, 2*len(links))
	carve := func(k int) []int {
		if k == 0 {
			return nil
		}
		s := adj[:0:k]
		adj = adj[k:]
		return s
	}
	out, in := make([][]int, n), make([][]int, n)
	for u := 0; u < n; u++ {
		out[u], in[u] = carve(deg[u]), carve(deg[n+u])
	}
	for id, l := range links {
		out[l.From] = append(out[l.From], id)
		in[l.To] = append(in[l.To], id)
	}
	*p = Platform{nodes: nodes, links: links, out: out, in: in, sliceSize: slice}
	return nil
}

// decoder is a cursor over one JSON document. Every method is entered with
// off at the first byte of a value (after optional white space) and leaves
// off just past it.
type decoder struct {
	data  []byte
	off   int
	depth int // open objects and arrays, bounded like encoding/json's
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

func (d *decoder) syntax(msg string) error {
	return fmt.Errorf("platform: invalid JSON at offset %d: %s", d.off, msg)
}

func (d *decoder) mismatch(want string) error {
	return fmt.Errorf("platform: JSON value at offset %d is not %s", d.off, want)
}

// space skips white space and returns the byte at the cursor (0 at the end).
func (d *decoder) space() byte {
	for d.off < len(d.data) {
		c := d.data[d.off]
		// Nearly every call lands on a token: one comparison settles it.
		if c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
		d.off++
	}
	return 0
}

// literal consumes the given keyword.
func (d *decoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.syntax("invalid literal")
	}
	d.off += len(word)
	return nil
}

// open and close bracket one object or array.
func (d *decoder) open() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	return nil
}

func (d *decoder) close() {
	d.off++
	d.depth--
}

// object walks the members of an object, calling member with the raw key and
// the cursor at the member's value, which member must consume. null is
// accepted and calls nothing.
func (d *decoder) object(member func(key []byte) error) error {
	switch d.space() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.space() == '}' {
		d.close()
		return nil
	}
	for {
		if d.space() != '"' {
			return d.syntax("expected a string key")
		}
		key, _, err := d.stringToken()
		if err != nil {
			return err
		}
		if d.space() != ':' {
			return d.syntax("expected ':' after the key")
		}
		d.off++
		if err := member(key); err != nil {
			return err
		}
		switch d.space() {
		case ',':
			d.off++
		case '}':
			d.close()
			return nil
		default:
			return d.syntax("expected ',' or '}' after a member")
		}
	}
}

// array walks the elements of an array, calling elem with the index and the
// cursor at the element, which elem must consume. It returns the number of
// elements, or -1 for null.
func (d *decoder) array(elem func(i int) error) (int, error) {
	switch d.space() {
	case 'n':
		return -1, d.literal("null")
	case '[':
	default:
		return 0, d.mismatch("an array")
	}
	if err := d.open(); err != nil {
		return 0, err
	}
	if d.space() == ']' {
		d.close()
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		switch d.space() {
		case ',':
			d.off++
		case ']':
			d.close()
			return i + 1, nil
		default:
			return 0, d.syntax("expected ',' or ']' after an element")
		}
	}
}

// decodeList decodes an array into *dst one element at a time. On a repeated
// member it does what encoding/json does: elements decode over those of the
// earlier list (not zeroed first), the list is cut to the new length, and an
// empty array or null starts over.
func decodeList[T any](d *decoder, dst *[]T, elem func(*T) error) error {
	s := *dst
	n, err := d.array(func(i int) error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		return elem(&s[i])
	})
	switch {
	case err != nil:
		return err
	case n < 0:
		*dst = nil
	case n == 0:
		*dst = []T{}
	default:
		*dst = s[:n]
	}
	return nil
}

func (d *decoder) node(nd *Node) error {
	return d.object(func(key []byte) error {
		switch fieldIndex(key, "name", "send", "recv") {
		case 0:
			return d.str(&nd.Name)
		case 1:
			return d.cost(&nd.Send)
		case 2:
			return d.cost(&nd.Recv)
		}
		return d.skip()
	})
}

func (d *decoder) link(l *Link) error {
	return d.object(func(key []byte) error {
		switch fieldIndex(key, "from", "to", "cost") {
		case 0:
			return d.integer(&l.From)
		case 1:
			return d.integer(&l.To)
		case 2:
			return d.cost(&l.Cost)
		}
		return d.skip()
	})
}

func (d *decoder) cost(c *model.AffineCost) error {
	return d.object(func(key []byte) error {
		switch fieldIndex(key, "latency", "perUnit") {
		case 0:
			return d.float(&c.Latency)
		case 1:
			return d.float(&c.PerUnit)
		}
		return d.skip()
	})
}

// fieldIndex returns the index of the name the raw key selects — exactly, or
// failing that under Unicode simple case folding, which is how encoding/json
// matches struct fields — or -1.
func fieldIndex(raw []byte, names ...string) int {
	for i, name := range names {
		if string(raw) == name {
			return i
		}
	}
	key := string(raw)
	if strings.IndexByte(key, '\\') >= 0 {
		if json.Unmarshal([]byte(`"`+key+`"`), &key) != nil {
			return -1
		}
	}
	for i, name := range names {
		if strings.EqualFold(key, name) {
			return i
		}
	}
	return -1
}

// float decodes a number into *dst; null leaves it untouched.
func (d *decoder) float(dst *float64) error {
	tok, err := d.numberOrNull("a number")
	if err != nil || tok == nil {
		return err
	}
	if len(tok) == 1 { // a lone digit, most often a zero latency
		*dst = float64(tok[0] - '0')
		return nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("platform: JSON number %s does not fit a float64", tok)
	}
	*dst = v
	return nil
}

// integer decodes a whole number into *dst; null leaves it untouched.
func (d *decoder) integer(dst *int) error {
	tok, err := d.numberOrNull("an integer")
	if err != nil || tok == nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("platform: JSON number %s is not an integer", tok)
	}
	*dst = int(v)
	return nil
}

// numberOrNull consumes a number and returns its text, or consumes null and
// returns nil.
func (d *decoder) numberOrNull(want string) ([]byte, error) {
	switch c := d.space(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.numberToken()
	}
	return nil, d.mismatch(want)
}

// numberToken consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *decoder) numberToken() ([]byte, error) {
	data, i := d.data, d.off
	// digits advances i over a run of digits and reports whether there was one.
	digits := func() bool {
		from := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > from
	}
	fail := func(msg string) ([]byte, error) {
		d.off = i
		return nil, d.syntax(msg)
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return fail("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return fail("invalid number: no digits after the point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return fail("invalid number: no digits in the exponent")
		}
	}
	tok := data[d.off:i]
	d.off = i
	return tok, nil
}

// str decodes a string into *dst; null leaves it untouched.
func (d *decoder) str(dst *string) error {
	switch d.space() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch("a string")
	}
	start := d.off
	raw, plain, err := d.stringToken()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw)
		return nil
	}
	// Escapes and non-ASCII bytes are rare in names; encoding/json's own
	// unquoting (surrogates, U+FFFD for invalid UTF-8) handles them.
	return json.Unmarshal(d.data[start:d.off], dst)
}

// stringToken consumes a string and returns the bytes between its quotes;
// plain reports that they are the string's value as they stand (printable
// ASCII, no escapes).
func (d *decoder) stringToken() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.off + 1 // past the opening quote
	plain = true
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(data) {
				break
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-i < 5 || !isHex(data[i+1]) || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) {
					d.off = i
					return nil, false, d.syntax("invalid \\u escape")
				}
				i += 4
			default:
				d.off = i
				return nil, false, d.syntax("invalid escape")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.syntax("control character in a string")
		case c >= 0x80:
			plain = false
		}
	}
	d.off = len(data)
	return nil, false, d.syntax("unexpected end of a string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skip consumes one value of any type, checking it against the grammar.
func (d *decoder) skip() error {
	switch c := d.space(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.numberToken()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == 0 && d.off >= len(d.data):
		return d.syntax("unexpected end of input")
	}
	return d.syntax("unexpected character")
}
