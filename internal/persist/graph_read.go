package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"repro/internal/graph"
)

// ReadGraph reads a graph archive: what WriteGraph writes, and no more of
// JSON than that. The document is one object holding the keys "version",
// "n", "labels" and "edges", each at most once and in any order (a missing
// one counts as zero or empty): version the integer 1, n the vertex
// count, labels null or an array of exactly n strings, edges null or an
// array of [u, v, weight] number triples with integral endpoints in
// [0, n) and a finite weight of zero or more. Repeats of a pair add up,
// in document order, as do Strength and TotalWeight. Whatever follows the
// object's closing brace is not looked at.
//
// Documents a general JSON decoder would take are errors here: a key
// other than the four (as written: "Edges" and "\u006e" are unknown), a
// key given twice, null for version or n, null as a label, as a triple or
// inside one, a triple of two or four numbers, and a vertex id of 2^31 or
// more.
//
// The input is read once through a 64 KB window and never held whole;
// memory is the finished graph, whose labels all share one string, plus
// 16 bytes per edge while reading, a small multiple of the bytes read
// whatever n the document claims. Errors carry the byte offset reached; a
// document that ends early is an io.ErrUnexpectedEOF, and an error from r
// is returned as it came.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	s := &graphScanner{br: bufio.NewReaderSize(r, 64<<10), maxVertex: -1}
	var (
		version, n int64
		labels     []string
		edges      graph.EdgeList
		seen       = map[string]bool{}
	)
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		tok, _ := s.str()
		key := string(tok)
		if seen[key] {
			s.fail("key %q given twice", key)
		}
		seen[key] = true
		s.expect(':')
		switch key {
		case "version":
			version = s.integer()
		case "n":
			n = s.integer()
		case "labels":
			labels = s.labels()
		case "edges":
			s.edges(&edges)
		default:
			s.fail("unknown key %q", key)
		}
	}
	switch {
	case s.err != nil:
	case version != formatVersion:
		s.fail("unsupported graph version %d", version)
	case int64(len(labels)) != n:
		s.fail("%d labels for %d vertices", len(labels), n)
	case s.maxVertex >= len(labels):
		s.fail("edge %d names vertex %d of %d", s.maxEdge, s.maxVertex, len(labels))
	}
	if s.err != nil {
		return nil, s.err
	}
	g := graph.FromEdges(labels, &edges)
	// Repeated edges accumulate, and finite weights can sum past the
	// largest float; such a graph could not be written back.
	if math.IsInf(g.TotalWeight(), 0) {
		s.fail("edge weights overflow")
		return nil, s.err
	}
	return g, nil
}

// graphScanner tokenizes a graph archive from the reader's buffered bytes.
// Its methods keep the first error in err and do nothing once it is set,
// so a caller parses straight through and checks err at the end.
type graphScanner struct {
	br  *bufio.Reader
	win []byte // br's buffered bytes
	pos int    // how many of them are consumed
	off int64  // input offset of win[0]
	err error

	scratch []byte // a token that did not fit the window

	// the largest vertex any edge names and the first edge naming it:
	// checked against n when the object closes, wherever "n" came.
	maxVertex, maxEdge int
}

// fail records a format error at the current offset.
func (s *graphScanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("persist: graph: %s at offset %d", fmt.Sprintf(format, args...), s.off+int64(s.pos))
	}
}

// fill replaces a fully consumed window with the reader's next bytes and
// reports whether there are any; the end of the input is an error, since
// nothing calls fill after the closing brace.
func (s *graphScanner) fill() bool {
	if s.err != nil {
		return false
	}
	s.br.Discard(s.pos) // cannot fail: pos bytes are buffered
	s.off += int64(s.pos)
	s.pos = 0
	_, err := s.br.Peek(1)
	s.win, _ = s.br.Peek(s.br.Buffered())
	switch {
	case len(s.win) > 0:
		return true
	case err == io.EOF:
		s.err = fmt.Errorf("persist: graph: %w at offset %d", io.ErrUnexpectedEOF, s.off)
	default:
		s.err = err
	}
	return false
}

// peek skips white space and returns the next byte without consuming it,
// or 0 once the scanner has failed.
func (s *graphScanner) peek() byte {
	for {
		if s.pos = skipSpace(s.win, s.pos); s.pos < len(s.win) {
			return s.win[s.pos]
		}
		if !s.fill() {
			return 0
		}
	}
}

// expect consumes the next byte after white space, which must be c.
func (s *graphScanner) expect(c byte) {
	if got := s.peek(); got == c {
		s.pos++
	} else {
		s.fail("found %q, want %q", got, c)
	}
}

// more steps through a comma-separated sequence: it reports whether
// another element follows, consuming the comma before it (every element
// but the first has one) or the closing byte after the last.
func (s *graphScanner) more(closing byte, first bool) bool {
	if s.peek() == closing {
		s.pos++
		return false
	}
	if !first {
		s.expect(',')
	}
	return s.err == nil
}

// null consumes a null, if a word starting with n is the next value.
func (s *graphScanner) null() bool {
	if s.peek() != 'n' {
		return false
	}
	word := s.token(func(b []byte) int {
		i := 0
		for i < len(b) && 'a' <= b[i] && b[i] <= 'z' {
			i++
		}
		return i
	})
	if s.err == nil && string(word) != "null" {
		s.fail("found %q, want null", word)
	}
	return s.err == nil
}

// token consumes the bytes of one token and returns them: a view of the
// window, or of scratch when the token ran past the window's end; either
// is good until the next token. span reports how many of the bytes it is
// given continue the token; it sees each byte once, in order, and the
// token ends at the first byte it leaves out.
func (s *graphScanner) token(span func(b []byte) int) []byte {
	start, spilled := s.pos, false
	for {
		s.pos += span(s.win[s.pos:])
		if s.pos < len(s.win) {
			break
		}
		if !spilled {
			s.scratch, spilled = s.scratch[:0], true
		}
		s.scratch = append(s.scratch, s.win[start:]...)
		if !s.fill() {
			return nil
		}
		start = 0
	}
	if spilled {
		s.scratch = append(s.scratch, s.win[start:s.pos]...)
		return s.scratch
	}
	return s.win[start:s.pos]
}

// number returns the next value, which must be a JSON number, as text.
// strconv takes forms JSON does not ("+1", ".5", "0x10", "1_000", "Inf"),
// so the grammar is checked here, before strconv converts.
func (s *graphScanner) number() []byte {
	s.peek()
	tok := s.token(func(b []byte) int {
		for i, c := range b {
			if !numberByte(c) {
				return i
			}
		}
		return len(b)
	})
	switch {
	case s.err != nil:
	case len(tok) == 0:
		s.fail("found %q, want a number", s.win[s.pos])
	case numberEnd(tok, 0) != len(tok):
		s.fail("%q is not a number", tok)
	}
	return tok
}

// integer reads version or n: a number in integer form, as encoding/json
// requires for an int field ("1.0" and "1e0" are not).
func (s *graphScanner) integer() int64 {
	tok := s.number()
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if s.err == nil && err != nil {
		s.fail("%q is not an integer", tok)
	}
	return v
}

// float converts a number the way encoding/json fills a float64.
func (s *graphScanner) float(tok []byte) float64 {
	f, err := strconv.ParseFloat(string(tok), 64)
	if s.err == nil && err != nil {
		s.fail("%q is out of range", tok)
	}
	return f
}

// endpoint reads a vertex id: a number with an integral value ("3", "3.0"
// and "3e0" alike) in [0, 2^31).
func (s *graphScanner) endpoint() int {
	tok := s.number()
	f := s.float(tok)
	if s.err == nil && !(f >= 0 && f <= math.MaxInt32 && f == math.Trunc(f)) {
		s.fail("edge endpoint %s is not a vertex", tok)
	}
	return int(f)
}

func (s *graphScanner) edges(list *graph.EdgeList) {
	if s.null() {
		return
	}
	s.expect('[')
	for i := 0; s.more(']', i == 0); i++ {
		u, v, w, ok := s.plainTriple()
		if !ok {
			u, v, w = s.triple(i)
		}
		if s.err != nil {
			return
		}
		if m := max(u, v); m > s.maxVertex {
			s.maxVertex, s.maxEdge = m, i
		}
		if w > 0 {
			list.Add(u, v, w)
		}
	}
}

// triple reads edge i's [u, v, weight] token by token.
func (s *graphScanner) triple(i int) (u, v int, w float64) {
	s.expect('[')
	u = s.endpoint()
	s.expect(',')
	v = s.endpoint()
	s.expect(',')
	w = s.float(s.number())
	if s.err == nil && w < 0 {
		s.fail("edge %d has negative weight %v", i, w)
	}
	s.expect(']')
	return u, v, w
}

// plainTriple reads a triple in the form WriteGraph writes — endpoints of
// at most nine digits, a weight of digits and an optional fraction, no
// sign, exponent or leading zero — that lies wholly in the window, in one
// pass over its bytes. It consumes the triple and reports true, or
// consumes nothing and reports false, leaving every other triple and
// every error to triple: what it accepts, triple accepts as the same
// numbers.
func (s *graphScanner) plainTriple() (u, v int, w float64, ok bool) {
	b := s.win
	i := skipSpace(b, s.pos)
	if i == len(b) || b[i] != '[' {
		return 0, 0, 0, false
	}
	if i, u = plainInt(b, skipSpace(b, i+1)); i < 0 {
		return 0, 0, 0, false
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ',' {
		return 0, 0, 0, false
	}
	if i, v = plainInt(b, skipSpace(b, i+1)); i < 0 {
		return 0, 0, 0, false
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ',' {
		return 0, 0, 0, false
	}
	if i, w = plainFloat(b, skipSpace(b, i+1)); i < 0 {
		return 0, 0, 0, false
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ']' {
		return 0, 0, 0, false
	}
	s.pos = i + 1
	return u, v, w, true
}

// plainInt reads an endpoint at i: one to nine digits, no leading zero,
// ending the number. It returns the index after it and its value, or -1.
func plainInt(b []byte, i int) (end, v int) {
	end, m := digitRun(b, i, 0)
	if end == i || end-i > 9 || b[i] == '0' && end > i+1 || end == len(b) || numberByte(b[end]) {
		return -1, 0
	}
	return end, int(m)
}

// plainFloat reads a weight at i: digits and an optional fraction, no
// sign, exponent or leading zero, ending the number. It returns the index
// after it and its value as strconv.ParseFloat rounds it, or -1. The
// digits are converted as they are validated; only a weight of more than
// 19 digits, or one too large for a float64, goes to strconv.
func plainFloat(b []byte, i int) (end int, f float64) {
	start := i
	i, m := digitRun(b, i, 0)
	digits, frac := i-start, 0
	if digits == 0 || b[start] == '0' && digits > 1 {
		return -1, 0
	}
	if i < len(b) && b[i] == '.' {
		end, m = digitRun(b, i+1, m)
		if frac = end - i - 1; frac == 0 {
			return -1, 0
		}
		digits, i = digits+frac, end
	}
	if i == len(b) || numberByte(b[i]) {
		return -1, 0
	}
	if f, ok := decimal(m, digits, frac); ok {
		return i, f
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return -1, 0
	}
	return i, f
}

// digitRun reads the decimal digits from b[i] on into m: it returns the
// index after the last and m·10^count plus their value, exact while that
// stays below 2^64. Eight bytes are tested and converted at a time.
func digitRun(b []byte, i int, m uint64) (int, uint64) {
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:])
		// A byte's top bit is set in either term unless it is a digit, and
		// no carry or borrow reaches the digits below the first non-digit.
		d := bits.TrailingZeros64(((x+0x4646464646464646)|(x-0x3030303030303030))&0x8080808080808080) >> 3
		if d == 0 {
			return i, m
		}
		// The d digits, as the last of eight with leading zeros (d = 8
		// shifts by nothing), in three multiply-adds of digit pairs, quads
		// and halves.
		x = (x - 0x3030303030303030) << ((64 - 8*d) & 63)
		x = x*10 + x>>8
		x = ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		m = m*pow10u[d] + uint64(uint32(x))
		if i += d; d < 8 {
			return i, m
		}
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = 10*m + uint64(b[i]-'0')
	}
	return i, m
}

var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimal returns m/10^k, m of the given number of digits and k < digits,
// correctly rounded (to nearest, ties to even), or false past 19 digits.
// Below 2^53, m and 10^k are exact float64s and one IEEE division rounds
// (Clinger 1990). Otherwise m and 10^k, each shifted to fill 64 bits, give
// a quotient of 63 or 64 bits whose remainder is the sticky bit.
func decimal(m uint64, digits, k int) (float64, bool) {
	switch {
	case digits > 19:
		return 0, false
	case m < 1<<53:
		return float64(m) / float64(pow10u[k]), true
	}
	d := pow10u[k]
	ls, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
	q, r := bits.Div64(m<<ls>>1, m<<ls<<63, d<<ld) // m/d = q·2^(ld-ls-63), q in (2^62, 2^64)
	shift := 11 - bits.LeadingZeros64(q)
	mant, rest, half := q>>shift, q&(1<<shift-1), uint64(1)<<(shift-1)
	if rest > half || rest == half && (r != 0 || mant&1 != 0) {
		mant++
	}
	exp := shift + ld - ls - 63
	if mant == 1<<53 {
		mant, exp = mant>>1, exp+1
	}
	return math.Float64frombits(uint64(exp+1023+52)<<52 | mant&(1<<52-1)), true
}

// numberByte reports whether c continues a number token as number reads it.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'
}

// labels reads the label array into one string: each label's bytes, as
// they stand or, with escapes or bytes that are not UTF-8, as encoding/json
// decodes them, are appended to one buffer, and every label is a substring
// of that buffer converted once.
func (s *graphScanner) labels() []string {
	if s.null() {
		return nil
	}
	s.expect('[')
	var (
		arena []byte
		ends  []int
	)
	for first := true; s.more(']', first); first = false {
		tok, plain := s.str()
		if s.err != nil {
			return nil
		}
		if plain {
			arena = append(arena, tok...)
		} else {
			var label string
			if json.Unmarshal(append(append([]byte{'"'}, tok...), '"'), &label) != nil {
				s.fail("label %d has an invalid escape", len(ends))
			}
			arena = append(arena, label...)
		}
		ends = append(ends, len(arena))
	}
	if s.err != nil {
		return nil
	}
	all, labels, start := string(arena), make([]string, len(ends)), 0
	for i, end := range ends {
		labels[i], start = all[start:end], end
	}
	return labels
}

// str reads a string and returns what stands between its quotes, and
// whether that is the string's value as it stands: no escapes, valid UTF-8.
func (s *graphScanner) str() (tok []byte, plain bool) {
	s.expect('"')
	escapes, skip := false, false
	tok = s.token(func(b []byte) int {
		for i, c := range b {
			switch {
			case skip: // the byte a backslash escapes, a quote included
				skip = false
			case c == '\\':
				escapes, skip = true, true
			case c == '"' || c < ' ':
				return i
			}
		}
		return len(b)
	})
	if s.err != nil {
		return nil, false
	}
	if c := s.win[s.pos]; c != '"' {
		s.fail("control character %q in string", c)
		return nil, false
	}
	s.pos++ // the closing quote
	return tok, !escapes && utf8.Valid(tok)
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	r, err := strconv.ParseUint(string(b[:4]), 16, 16) // no sign, no underscore
	if err != nil {
		return -1
	}
	return rune(r)
}
