package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/persist"
)

// What EncodeLine writes is what the fast path reads: if it declined
// these, every ledger would fall back to json.Unmarshal and nothing would
// say so. A string json.Marshal escapes is the one thing it leaves to
// json.Unmarshal.
func TestFieldsReadWhatEncodeLineWrites(t *testing.T) {
	for _, e := range []IndexEntry{
		{Key: key64('a')},
		{Key: key64('b'), Run: 7, Scenario: "GT", Backend: "sim", Owner: "host-1.pid42", Cache: "miss",
			WallSeconds: 0.0123456789, CompletedUnix: 1790000000.123456},
		{Key: key64('c'), Run: -3, WallSeconds: 1e-9, CompletedUnix: 1e21},
		{Key: key64('d'), Run: 1 << 62, Scenario: `a "quoted" \ name`},
		{Key: key64('e'), Owner: "<w>&", Scenario: "héllo"},
	} {
		line, err := EncodeLine(e)
		if err != nil {
			t.Fatal(err)
		}
		line = bytes.TrimSpace(line)
		escaped := bytes.IndexByte(line, '\\') >= 0 || bytes.ContainsFunc(line, func(r rune) bool { return r >= 0x80 })
		fast, ok := readIndexEntry(line)
		if ok == escaped {
			t.Errorf("fast path read=%v a line with escapes=%v: %s", ok, escaped, line)
		}
		if ok && fast != e {
			t.Errorf("fast path read %+v from %s", fast, line)
		}
		if got, err := decodeIndexEntry(line); err != nil || got != e {
			t.Errorf("decodeIndexEntry(%s) = %+v, %v", line, got, err)
		}
	}
}

// maxDepth is the nesting persist.Fields' Skip follows; a deeper value is
// declined.
const maxDepth = 64

// Skip steps over any valid JSON value, white space included, and
// leaves the members after it to be read; it declines what json.Valid
// refuses.
func TestFieldsSkipAnyValue(t *testing.T) {
	for _, v := range []string{
		`"x"`, `"a\"b\\"`, `"\\\\"`, `"]}"`, `"\u00e9\/\b"`, "\"\xff\"", `-1.5e+3`, `0`, `true`, `false`, `null`,
		`{}`, `[]`, ` [ 1 , { "x" : "]\"" } , [ ] ] `, `{"a":{"b":[{"c":null}]}}`,
	} {
		if !skips(v) {
			t.Errorf("did not skip %s", v)
		}
	}
	for _, v := range []string{
		``, `"x`, `"\x"`, `"\u12"`, "\"\t\"", `01`, `1.`, `-`, `tru`, `nul`, `[1,]`, `{"a":1,}`,
		`{"a"}`, `{1:2}`, `[`, `]`, `{"a":1]`, `[1}`, strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
	} {
		if skips(v) {
			t.Errorf("skipped %q", v)
		}
	}
}

// skips reports whether Skip steps over v as the value of a member
// before another.
func skips(v string) bool {
	f := persist.ReadFields([]byte(`{ "a" :` + v + `, "b": 2 }` + "\n"))
	f.Skip("a")
	return f.Int("b") == 2 && f.Done()
}

// FuzzSkip holds Skip to json.Valid: it steps over exactly the values
// json.Valid accepts, but for those nested deeper than maxDepth.
func FuzzSkip(f *testing.F) {
	for _, s := range append(fieldSeeds, `"a\"b"`, `[{"x":[1,2,{"y":"\u00e9"}]},true,null,-0.5e-3]`, "\"\x01\"", `[[[]]]`) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		valid := json.Valid(v)
		shallow := bytes.Count(v, []byte("["))+bytes.Count(v, []byte("{")) <= maxDepth
		if got := skips(string(v)); got && !valid || !got && valid && shallow {
			t.Fatalf("Skip accepted=%v %q; json.Valid: %v", got, v, valid)
		}
	})
}

// fieldSeeds are lines of the kinds a ledger or a manifest log holds,
// and the near misses the fast path must leave to json.Unmarshal.
var fieldSeeds = []string{
	`{}`,
	`{"key":"` + key64('a') + `","run":3,"scenario":"GT","backend":"sim","owner":"w1","cache":"miss","wall_seconds":0.25,"completed_unix":1790000000.5}`,
	`{"key":"` + key64('a') + `","run":3}`,
	`{"run":3,"key":"` + key64('a') + `"}`,
	`{"key":"` + key64('a') + `","owner":"<w>"}`,
	`{"key":"` + key64('a') + `","owner":"\u003cw\u003e"}`,
	`{"key":"` + key64('a') + `","owner":"wörker"}`,
	`{"key":"` + key64('a') + `","wall_seconds":null}`,
	`{"key":"` + key64('a') + `","run":1e2}`,
	`{"key":"` + key64('a') + `","run":1.0}`,
	`{"key":"` + key64('a') + `","run":99999999999999999999}`,
	`{"key":"` + key64('a') + `","run":-0,"wall_seconds":-0}`,
	`{"key":"` + key64('a') + `","wall_seconds":1e400}`,
	`{"key":"` + key64('a') + `","wall_seconds":1E-400}`,
	`{"key":"` + key64('a') + `","wall_seconds":01}`,
	`{"key":"` + key64('a') + `","wall_seconds":.5}`,
	`{"Key":"` + key64('a') + `"}`,
	`{"KEY":"` + key64('a') + `","key":"` + key64('b') + `"}`,
	`{"key":"` + key64('a') + `","key":"` + key64('b') + `"}`,
	`{"key":"` + key64('a') + `"}x`,
	`{"key":"` + key64('a') + `"}{}`,
	`{"key":"` + key64('a') + `",}`,
	` { "key" : "` + key64('a') + `" , "run" : 2 } `,
	`{"key":"` + key64('a') + `","extra":[1,{"x":"}"}]}`,
	`[]`,
	`null`,
	`{"key":"` + key64('a'),
}

// FuzzDecodeIndexEntry holds the ledger line's fast path to
// json.Unmarshal: whatever line it reads, json.Unmarshal accepts and
// decodes to a DeepEqual value, so it declines every line json.Unmarshal
// rejects, and decodeIndexEntry always answers as json.Unmarshal does.
func FuzzDecodeIndexEntry(f *testing.F) {
	for _, s := range fieldSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want IndexEntry
		wantErr := json.Unmarshal(line, &want)
		fast, ok := readIndexEntry(line)
		if ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("fast path read %+v from %q; json.Unmarshal: %+v, %v", fast, line, want, wantErr)
		}
		got, err := decodeIndexEntry(line)
		if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("decodeIndexEntry(%q) = %+v, %v; json.Unmarshal: %+v, %v", line, got, err, want, wantErr)
		}
	})
}
