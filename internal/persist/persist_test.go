package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/scenario"
)

func sample() *graph.Graph {
	g := graph.New(5)
	g.SetLabel(0, "bordeplage-0")
	g.SetLabel(1, "bordeplage-1")
	g.AddWeight(0, 1, 727.5)
	g.AddWeight(1, 2, 198)
	g.AddWeight(3, 4, 0.25)
	g.AddWeight(2, 2, 3) // self-loop survives round-trip
	return g
}

func TestGraphRoundTrip(t *testing.T) {
	g := sample()
	var sb strings.Builder
	if err := WriteGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.EdgeCount() != g.EdgeCount() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.N(), back.EdgeCount(), g.N(), g.EdgeCount())
	}
	for u := 0; u < g.N(); u++ {
		if back.Label(u) != g.Label(u) {
			t.Fatalf("label %d changed: %q vs %q", u, back.Label(u), g.Label(u))
		}
		for v := u; v < g.N(); v++ {
			if back.Weight(u, v) != g.Weight(u, v) {
				t.Fatalf("weight (%d,%d) changed: %g vs %g", u, v, back.Weight(u, v), g.Weight(u, v))
			}
		}
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurement.json")
	if err := SaveGraph(path, sample()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != sample().N() || back.TotalWeight() != sample().TotalWeight() {
		t.Fatal("file round trip changed the vertex count or total weight")
	}
}

// Documents that parse but do not describe a graph are rejected by
// ReadGraph and by the encoding/json oracle alike.
func TestDecodeRejectsCorruptDocs(t *testing.T) {
	cases := []GraphDoc{
		{Version: 99, N: 1, Labels: []string{"a"}},
		{Version: 1, N: 2, Labels: []string{"a"}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0, 5, 1}}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0, 1, -4}}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0, 1, math.Inf(1)}}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0.5, 1, 3}}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0, math.NaN(), 3}}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0, 1e300, 3}}},
		{Version: 1, N: 2, Labels: []string{"a", "b"}, Edges: [][3]float64{{0, 1, 1e308}, {1, 0, 1e308}}},
	}
	for i := range cases {
		if _, err := DecodeGraph(&cases[i]); err == nil {
			t.Errorf("corrupt doc %d accepted by the oracle", i)
		}
		// NaN and Inf have no JSON form; every other case reaches ReadGraph.
		if data, err := json.Marshal(&cases[i]); err == nil {
			if _, err := ReadGraph(bytes.NewReader(data)); err == nil {
				t.Errorf("corrupt doc %d accepted: %s", i, data)
			}
		}
	}
}

func TestReadGraphRejectsGarbage(t *testing.T) {
	if _, err := ReadGraph(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	p := cluster.NewPartition([]int{0, 0, 1, 1, 2})
	doc := EncodeResult("GT", p, 0.28, 1.0, 123.4, []float64{0.3, 0.7, 1.0})
	path := filepath.Join(t.TempDir(), "gt.json")
	if err := SaveResult(path, doc); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dataset != "GT" || back.Q != 0.28 || back.SimTime != 123.4 {
		t.Fatalf("metadata changed: %+v", back)
	}
	if back.NMI == nil || *back.NMI != 1.0 {
		t.Fatal("NMI lost")
	}
	if len(back.NMISeries) != 3 {
		t.Fatalf("series length %d, want 3", len(back.NMISeries))
	}
	bp, err := back.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bp.Labels, p.Labels) {
		t.Fatal("partition changed in round trip")
	}
}

func TestResultWithoutTruthOmitsNMI(t *testing.T) {
	p := cluster.NewPartition([]int{0, 1})
	doc := EncodeResult("", p, 0.1, math.NaN(), 1, nil)
	if doc.NMI != nil {
		t.Fatal("NaN NMI should be omitted")
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := SaveResult(path, doc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "nmi\"") {
		t.Fatalf("serialised NMI despite no truth: %s", data)
	}
}

// An archive holds exactly one document: bytes appended after it — junk
// or a second document — make LoadResult fail, so a campaign never takes
// such a file for a cache hit. The trailing newline every writer ends
// with, and other white space, is accepted.
func TestLoadResultRejectsTrailingData(t *testing.T) {
	const doc = `{"version":1,"n":2,"labels":[0,1],"q":0.5,"sim_time_seconds":1}`
	dir := t.TempDir()
	for i, c := range []struct {
		data string
		ok   bool
	}{
		{doc + "\n", true},
		{doc + " \n\t\n", true},
		{doc + "x", false},
		{doc + "\n" + doc + "\n", false},
		{doc + ` trailing garbage {"x":`, false},
	} {
		path := filepath.Join(dir, fmt.Sprintf("%d.json", i))
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := LoadResult(path)
		if (err == nil) != c.ok {
			t.Errorf("LoadResult(%q): err = %v, want ok %v", c.data, err, c.ok)
		}
		if err == nil {
			if _, err := back.Partition(); err != nil {
				t.Errorf("LoadResult(%q): %v", c.data, err)
			}
		}
	}
}

func TestResultPartitionValidation(t *testing.T) {
	doc := &ResultDoc{Version: 1, N: 3, Labels: []int{0, 1}}
	if _, err := doc.Partition(); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	doc = &ResultDoc{Version: 2, N: 1, Labels: []int{0}}
	if _, err := doc.Partition(); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// Property: any random graph survives a round trip bit-exactly.
func TestGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		g := graph.New(n)
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddWeight(u, v, float64(rng.Intn(1000))+rng.Float64())
		}
		var sb strings.Builder
		if err := WriteGraph(&sb, g); err != nil {
			return false
		}
		back, err := ReadGraph(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if back.N() != g.N() {
			return false
		}
		for u := 0; u < n; u++ {
			for v := u; v < n; v++ {
				if back.Weight(u, v) != g.Weight(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Spec files must round-trip exactly: the registry-backed built-ins and a
// generated family member survive Save/Load unchanged, and garbage is
// rejected with validation intact.
func TestSpecFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := append(scenario.BuiltinSpecs(), scenario.NSites(3, 4, 890, 100))
	for _, s := range specs {
		path := filepath.Join(dir, s.Name+".json")
		if err := SaveSpec(path, s); err != nil {
			t.Fatalf("%s: save: %v", s.Name, err)
		}
		back, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("%s: load: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: spec changed in file round trip", s.Name)
		}
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing spec file loaded")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(invalid); err == nil {
		t.Fatal("invalid spec accepted through LoadSpec")
	}
	unsaved := filepath.Join(dir, "unsaved.json")
	if err := SaveSpec(unsaved, &scenario.Spec{}); err == nil {
		t.Fatal("SaveSpec serialised an invalid spec")
	}
	if _, err := os.Stat(unsaved); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SaveSpec of an invalid spec left a file: %v", err)
	}
}

// A writer failure mid-document — the simulated half of an interrupted
// campaign — must leave the destination exactly as it was: the previous
// archive intact, no torn JSON, no stray temp file promoted to the final
// path.
func TestWriteAtomicPartialWriteLeavesDestinationIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs", "abc123.json")
	if err := SaveGraph(path, sample()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a partial write: emit half a document, then fail the way a
	// killed process would stop mid-stream.
	wantErr := errors.New("killed mid-write")
	err = WriteAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"version": 1, "n":`); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("WriteAtomic error = %v, want the writer's", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("partial write reached the destination file")
	}
	if back, err := LoadGraph(path); err != nil || back.N() != sample().N() {
		t.Fatalf("archive no longer loads after interrupted overwrite: %v", err)
	}
}

// The temp file of an interrupted write must not be visible to readers of
// the final path, and a completed save must not leave temp siblings
// behind.
func TestWriteAtomicLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	if err := SaveGraph(path, sample()); err != nil {
		t.Fatal(err)
	}
	failing := errors.New("boom")
	_ = WriteAtomic(path, func(io.Writer) error { return failing })
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only g.json", names)
	}
}

// Published artifacts are meant to be shared; the temp file's private
// 0600 mode must not leak through the rename.
func TestWriteAtomicPublishesWorldReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	if err := SaveGraph(path, sample()); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := info.Mode().Perm(); mode&0o044 != 0o044 {
		t.Fatalf("published file mode %v is not group/other readable", mode)
	}
}

// A torn archive on disk (written by a pre-atomic version or a corrupted
// filesystem) must fail to load cleanly and be replaceable by an atomic
// save — the recovery path the campaign cache takes on a poisoned entry.
func TestSaveReplacesTornArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, []byte(`{"version": 1, "n": 5, "labels": [0, 0, 1`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResult(path); err == nil {
		t.Fatal("torn archive loaded without error")
	}
	p := cluster.NewPartition([]int{0, 0, 1, 1, 2})
	doc := EncodeResult("GT", p, 0.28, 1.0, 123.4, nil)
	if err := SaveResult(path, doc); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dataset != "GT" || back.N != 5 {
		t.Fatalf("recovered archive changed: %+v", back)
	}
}

func TestSaveCreatesParentDirectories(t *testing.T) {
	// Archive paths are routinely campaign-structured; Save* must create
	// missing parents instead of erroring.
	dir := t.TempDir()
	specPath := filepath.Join(dir, "campaign", "2026-07", "twin.json")
	spec := scenario.NSites(2, 4, 890, 100)
	if err := SaveSpec(specPath, spec); err != nil {
		t.Fatalf("SaveSpec into missing directories: %v", err)
	}
	back, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatal("spec changed through nested-directory round trip")
	}
	graphPath := filepath.Join(dir, "graphs", "deep", "nested", "g.json")
	if err := SaveGraph(graphPath, sample()); err != nil {
		t.Fatalf("SaveGraph into missing directories: %v", err)
	}
	if _, err := LoadGraph(graphPath); err != nil {
		t.Fatal(err)
	}
}
