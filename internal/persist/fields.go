package persist

import "strconv"

// Fields reads one JSON object a member at a time, in the form
// json.Marshal writes a struct: its members in field order, each at most
// once, any of them absent (an omitempty field left out), white space
// between tokens allowed (SaveJSON indents). It is the fast path
// of the decoders of what this program writes — ledger lines, manifest
// lines, manifest heads — each of which reads its struct's fields in
// order and falls back to json.Unmarshal unless Done accepts the object.
//
// So Fields may decline any object, and must never accept one that
// json.Unmarshal refuses or decodes to another value. It reads strings
// of printable ASCII without escapes and numbers in the JSON grammar,
// converted by the strconv functions json.Unmarshal uses, and checks
// what it skips as json.Valid would: an object Done accepts is valid
// JSON. It declines null, an escape, a key out of order, unknown or
// repeated (json.Unmarshal also matches keys case-insensitively, and the
// last duplicate wins), and anything after the object.
type Fields struct {
	b   []byte
	i   int  // read position
	n   int  // members read
	bad bool // a value did not read: the object is declined
}

// ReadFields starts reading the object b holds.
func ReadFields(b []byte) Fields {
	f := Fields{b: b, i: skipSpace(b, 0)}
	if f.i < len(b) && b[f.i] == '{' {
		f.i++
	} else {
		f.bad = true
	}
	return f
}

// member reports whether the next member is key and, if it is, moves
// past its key and colon to its value.
func (f *Fields) member(key string) bool {
	if f.bad {
		return false
	}
	b, i := f.b, skipSpace(f.b, f.i)
	if f.n > 0 {
		if i >= len(b) || b[i] != ',' {
			return false
		}
		i = skipSpace(b, i+1)
	}
	end := i + 1 + len(key)
	if end >= len(b) || b[i] != '"' || string(b[i+1:end]) != key || b[end] != '"' {
		return false
	}
	i = skipSpace(b, end+1)
	if i >= len(b) || b[i] != ':' {
		return false
	}
	f.i, f.n = skipSpace(b, i+1), f.n+1
	return true
}

// String reads member key as a string; "" when it is absent.
func (f *Fields) String(key string) string {
	if !f.member(key) {
		return ""
	}
	b, i := f.b, f.i
	if i >= len(b) || b[i] != '"' {
		f.bad = true
		return ""
	}
	j := i + 1
	for j < len(b) && plain[b[j]] {
		j++
	}
	if j >= len(b) || b[j] != '"' {
		f.bad = true
		return ""
	}
	f.i = j + 1
	return string(b[i+1 : j])
}

// Int reads member key as an int; 0 when it is absent. A fraction or an
// exponent declines the object (strconv.ParseInt refuses it), as
// json.Unmarshal refuses it for an int.
func (f *Fields) Int(key string) int {
	if !f.member(key) {
		return 0
	}
	v, err := strconv.ParseInt(string(f.number()), 10, strconv.IntSize)
	if err != nil {
		f.bad = true
	}
	return int(v)
}

// Float reads member key as a float64; 0 when it is absent.
func (f *Fields) Float(key string) float64 {
	if !f.member(key) {
		return 0
	}
	return f.float()
}

// FloatPtr reads member key as a *float64; nil when it is absent.
func (f *Fields) FloatPtr(key string) *float64 {
	if !f.member(key) {
		return nil
	}
	v := f.float()
	return &v
}

func (f *Fields) float() float64 {
	v, err := strconv.ParseFloat(string(f.number()), 64)
	if err != nil {
		f.bad = true
	}
	return v
}

// number reads a number in the JSON grammar, which strconv alone would
// not hold it to ("+1", "01", "1_0", "Inf", "0x1p3"). Whatever follows
// it is for the next member or Done to accept.
func (f *Fields) number() []byte {
	end := numberEnd(f.b, f.i)
	if end < 0 {
		f.bad = true
		return nil
	}
	num := f.b[f.i:end]
	f.i = end
	return num
}

// Skip steps over the value of member key, whatever it holds. A value
// json.Valid refuses, or one nested deeper than maxDepth, declines the
// object.
func (f *Fields) Skip(key string) {
	if !f.member(key) {
		return
	}
	if end := skipValue(f.b, f.i); end < 0 {
		f.bad = true
	} else {
		f.i = end
	}
}

// Done reports whether every value read and the object ends after the
// last member read, with nothing but white space after it.
func (f *Fields) Done() bool {
	if f.bad {
		return false
	}
	i := skipSpace(f.b, f.i)
	return i < len(f.b) && f.b[i] == '}' && skipSpace(f.b, i+1) == len(f.b)
}

// unescaped marks the bytes a JSON string holds as they are; plain
// narrows them to the printable ASCII String reads.
var unescaped, plain = func() (unescaped, plain [256]bool) {
	for c := ' '; c < 256; c++ {
		unescaped[c] = c != '"' && c != '\\'
		plain[c] = unescaped[c] && c <= '~'
	}
	return unescaped, plain
}()

// maxDepth bounds the nesting skipValue follows. This program writes
// three levels; a deeper value is declined, and json.Unmarshal holds it
// to json.Valid's own limit of 10,000.
const maxDepth = 64

// skipValue returns the index just past the JSON value at b[i], white
// space before it skipped, or -1 when json.Valid would refuse it or it
// nests deeper than maxDepth.
func skipValue(b []byte, i int) int {
	var closing [maxDepth]byte // the closing bracket of each open container
	depth := 0
	for {
		// A value starts here.
		i = skipSpace(b, i)
		if i >= len(b) {
			return -1
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return -1
			}
			closing[depth] = ']'
			if c == '{' {
				closing[depth] = '}'
			}
			depth++
			if i = skipSpace(b, i+1); i < len(b) && b[i] == closing[depth-1] {
				i++
				depth--
				break // an empty container is a whole value
			}
			if c == '{' && !validKey(b, &i) {
				return -1
			}
			continue // to its first element
		case '"':
			i = stringEnd(b, i)
		case 't':
			i = literalEnd(b, i, "true")
		case 'f':
			i = literalEnd(b, i, "false")
		case 'n':
			i = literalEnd(b, i, "null")
		default:
			i = numberEnd(b, i)
		}
		if i < 0 {
			return -1
		}
		// A value ended: close what it ends, or go on to the next element.
		for {
			if depth == 0 {
				return i
			}
			i = skipSpace(b, i)
			if i >= len(b) {
				return -1
			}
			if b[i] == closing[depth-1] {
				i++
				depth--
				continue
			}
			if b[i] != ',' {
				return -1
			}
			i++
			if closing[depth-1] == '}' && !validKey(b, &i) {
				return -1
			}
			break
		}
	}
}

// validKey moves *i past the white space, key string and colon that
// start an object member, reporting whether json.Valid would accept them.
func validKey(b []byte, i *int) bool {
	j := skipSpace(b, *i)
	if j >= len(b) || b[j] != '"' {
		return false
	}
	if j = stringEnd(b, j); j < 0 {
		return false
	}
	j = skipSpace(b, j)
	if j >= len(b) || b[j] != ':' {
		return false
	}
	*i = j + 1
	return true
}

// stringEnd returns the index just past the string at b[i] == '"', or -1
// when json.Valid would refuse it: a control byte, an escape it does not
// know, or no closing quote. Like json.Valid it does not check UTF-8.
func stringEnd(b []byte, i int) int {
	for i++; ; i++ {
		for i < len(b) && unescaped[b[i]] {
			i++
		}
		switch {
		case i >= len(b) || b[i] < ' ':
			return -1
		case b[i] == '"':
			return i + 1
		}
		// A backslash.
		if i++; i >= len(b) {
			return -1
		}
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		case 'u':
			if hex4(b[i+1:]) < 0 {
				return -1
			}
			i += 4
		default:
			return -1
		}
	}
}

// literalEnd returns the index just past lit at b[i], or -1.
func literalEnd(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// numberEnd returns the index just past the number in the JSON grammar
// at b[i], or -1.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// skipDigits returns the end of the run of decimal digits starting at i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte of b from i on that is
// not JSON white space, or len(b).
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
	}
	return i
}
