package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fleet"
)

// What Record appends is what the fast path reads: if it declined these,
// every manifest.log would fall back to json.Unmarshal and nothing would
// say so. A string json.Marshal escapes is the one thing it leaves to
// json.Unmarshal.
func TestReadEntryReadsWhatRecordWrites(t *testing.T) {
	nmi, zero := 0.8125, 0.0
	key := "c9aa47e7d7f1dcf8e35a3bc9f41ac19bd922cbac5a967bcd962d13dbc9cd169a"
	for _, e := range []Entry{
		{Index: 12, Scenario: "2x2", Config: "dyn=1 iters=3 window=0 rotate=false seed=1 scale=0.2 top=0.5 backend=sim workers=1",
			Key: key, Backend: "sim", Status: "done", Cache: "miss", Owner: "w1", WallSeconds: 0.017932918,
			Q: 0.41, NMI: &nmi, SimSeconds: 2.2533217060893174},
		{Index: 3, Scenario: "GT", Key: key, Status: "done", Cache: "hit", NMI: &zero},
		{Index: 4, Scenario: "GT", Key: key, Status: "failed", Error: "campaign: run 4: boom"},
		{Index: 5, Scenario: "a<b", Key: key, Status: "failed", Error: "quote \" here"},
	} {
		line, err := fleet.EncodeLine(e)
		if err != nil {
			t.Fatal(err)
		}
		line = bytes.TrimSpace(line)
		escaped := bytes.IndexByte(line, '\\') >= 0
		fast, ok := readEntry(line)
		if ok == escaped {
			t.Errorf("fast path read=%v a line with escapes=%v: %s", ok, escaped, line)
		}
		if ok && !reflect.DeepEqual(fast, e) {
			t.Errorf("fast path read %+v from %s", fast, line)
		}
		if got, ok := DecodeEntry(line); !ok || !reflect.DeepEqual(got, e) {
			t.Errorf("DecodeEntry(%s) = %+v, %v", line, got, ok)
		}
	}
}

// FuzzDecodeEntry holds the manifest line's fast path to json.Unmarshal:
// whatever line it reads, json.Unmarshal accepts and decodes to a
// DeepEqual value, so it declines every line json.Unmarshal rejects, and
// DecodeEntry always answers as json.Unmarshal does.
func FuzzDecodeEntry(f *testing.F) {
	key := `"c9aa47e7d7f1dcf8e35a3bc9f41ac19bd922cbac5a967bcd962d13dbc9cd169a"`
	for _, s := range []string{
		`{"index":0,"scenario":"2x2","config":"dyn=1 iters=3 seed=1","key":` + key + `,"backend":"sim","status":"done","cache":"miss","owner":"w1","wall_seconds":0.017932918,"q":0,"nmi":1,"sim_seconds":2.2533217060893174}`,
		`{"index":4,"scenario":"GT","config":"","key":` + key + `,"status":"failed","wall_seconds":0,"q":0,"sim_seconds":0,"error":"boom"}`,
		`{"key":` + key + `,"index":0}`,
		`{"index":0,"scenario":"<b>","key":` + key + `}`,
		`{"index":0,"scenario":"\u003cb\u003e","key":` + key + `}`,
		`{"index":0,"scenario":"é","key":` + key + `}`,
		`{"index":0,"key":` + key + `,"nmi":null}`,
		`{"index":1e2,"key":` + key + `}`,
		`{"index":123456789012345678901234567890,"key":` + key + `}`,
		`{"index":0,"key":` + key + `,"q":1e400}`,
		`{"Index":0,"KEY":` + key + `}`,
		`{"index":0,"index":1,"key":` + key + `}`,
		`{"index":0,"key":` + key + `} trailing`,
		`{"index":0,"key":` + key + `,"nmi":-0.0e-0}`,
		`{"index":0,"key":` + key + `,"q":"0.5"}`,
		`{"index":0,"key":""}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Entry
		wantErr := json.Unmarshal(line, &want)
		fast, ok := readEntry(line)
		if ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("fast path read %+v from %q; json.Unmarshal: %+v, %v", fast, line, want, wantErr)
		}
		got, ok := DecodeEntry(line)
		if wantOK := wantErr == nil && want.Key != ""; ok != wantOK || (ok && !reflect.DeepEqual(got, want)) {
			t.Fatalf("DecodeEntry(%q) = %+v, %v; json.Unmarshal: %+v, %v", line, got, ok, want, wantErr)
		}
	})
}

// FuzzExpand feeds Load whatever a hand-written campaign file can hold.
// Load and Expand never panic, a grid Expand accepts has one cell per
// point of its cross-product, and every cell's key is 64 lower-case hex
// digits, as fleet.IsArchiveKey also says; a grid of more than maxCells
// cells is refused. A scenario file is looked up by its base name among
// the spec files under testdata/specs, and a campaign naming any other
// file is skipped: a path in a fuzz input can name a device that never
// ends. So is a grid of 257 to maxCells cells, which costs its expansion
// and nothing else.
func FuzzExpand(f *testing.F) {
	specs, err := filepath.Abs(filepath.Join("..", "..", "testdata", "specs"))
	if err != nil {
		f.Fatal(err)
	}
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "campaigns", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed campaign files: %v", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"name":"d","scenarios":[{"file":"drift.json"},{"name":"GT"}],"axes":{"dynamics":[0,0.5,1,2],"iterations":[5,6]}}`,
		`{"name":"d","scenarios":[{"file":"drift.json"}],"axes":{"dynamics":[600]}}`,
		`{"name":"all","scenarios":[{"name":"2x2"}],"axes":{"window":[0,2],"rotate_root":[true,false],"seed":[-1,9223372036854775807],"scale":[1e-3],"top_fraction":[0,1],"backend":["","wire"],"workers":[1,4]}}`,
		`{"name":"x","scenarios":[{"name":"nope"}]}`,
		`{"name":"x","scenarios":[{"file":"/dev/zero"}]}`,
	} {
		f.Add([]byte(s))
	}
	// A grid past maxCells: four axes of 70 values each, two scenarios.
	var axis []int
	for v := range 70 {
		axis = append(axis, v+1)
	}
	big, err := json.Marshal(map[string]any{"name": "big", "scenarios": []ScenarioRef{{Name: "2x2"}, {Name: "GT"}},
		"axes": map[string][]int{"iterations": axis, "window": axis, "seed": axis, "workers": axis}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "campaign.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(path)
		if err != nil {
			return
		}
		cells := len(s.Scenarios)
		for _, a := range ConfigAxes {
			cells = min(cells*a.count(&s.Axes), maxCells+1)
		}
		if cells > 256 && cells <= maxCells {
			return
		}
		for i, ref := range s.Scenarios {
			if ref.File == "" {
				continue
			}
			file := filepath.Join(specs, filepath.Base(ref.File))
			if _, err := os.Stat(file); err != nil || filepath.Ext(file) != ".json" {
				return
			}
			s.Scenarios[i].File = file
		}
		runs, err := s.Expand()
		if cells > maxCells && err == nil {
			t.Fatalf("expanded a grid of more than %d cells\n%s", maxCells, data)
		}
		if err != nil {
			return
		}
		if len(runs) != cells {
			t.Fatalf("expanded %d cells of a %d-cell grid\n%s", len(runs), cells, data)
		}
		for _, r := range runs {
			if !lowerHex64(r.Key) || !fleet.IsArchiveKey(r.Key) {
				t.Fatalf("cell %d has key %q\n%s", r.Index, r.Key, data)
			}
		}
	})
}

func lowerHex64(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !('0' <= s[i] && s[i] <= '9' || 'a' <= s[i] && s[i] <= 'f') {
			return false
		}
	}
	return true
}
