package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/graph"
)

// stricterSeeds are the corpus documents the encoding/json reader took and
// ReadGraph refuses — the whole of what "the archive format and nothing
// more" costs. On every other seed the two agree.
var stricterSeeds = map[string]bool{
	"duplicate-key":    true, // the decoder let the last one win
	"unknown-key":      true, // skipped, whatever its value
	"case-variant-key": true, // "Edges" matched "edges"
	"triple-of-two":    true, // zero-filled
	"triple-of-four":   true, // truncated
	"null-in-edges":    true, // an edge [0,0,0]
	"null-in-triple":   true, // a zero
	"null-label":       true, // an empty label
	"null-n":           true, // n left at 0
}

// seedCorpus returns the checked-in FuzzReadGraph inputs by file name.
func seedCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzReadGraph")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil || len(lines) != 2 {
			t.Fatalf("%s: not a one-value corpus file: %v", e.Name(), err)
		}
		seeds[e.Name()] = []byte(data)
	}
	return seeds
}

// On the seed corpus and on every document WriteGraph emits, ReadGraph
// and the decoder it replaced agree on accept or reject as well as on the
// graph — except the seeds listed as stricter, which only the decoder
// takes.
func TestReadGraphAgreesWithDecoder(t *testing.T) {
	docs := seedCorpus(t)
	for name := range stricterSeeds {
		if docs[name] == nil {
			t.Errorf("stricter seed %s is not in the corpus", name)
		}
	}
	for name, g := range archiveGraphs() {
		var doc bytes.Buffer
		if err := WriteGraph(&doc, g); err != nil {
			t.Fatal(err)
		}
		docs["WriteGraph of "+name] = doc.Bytes()
	}
	for name, data := range docs {
		_, err, oracleErr := readBoth(t, data)
		switch {
		case stricterSeeds[name]:
			if err == nil || oracleErr != nil {
				t.Errorf("%s: ReadGraph %v, decoder %v; want only the decoder to accept", name, err, oracleErr)
			}
		case (err == nil) != (oracleErr == nil):
			t.Errorf("%s: ReadGraph %v, decoder %v", name, err, oracleErr)
		}
	}
	// A hundred thousand open brackets are an error, not a stack overflow.
	if _, err := ReadGraph(bytes.NewReader(docs["deep-nesting"])); err == nil {
		t.Error("deep-nesting: accepted")
	}
}

// A document that lists one vertex's 10^5 neighbours in descending order
// made the AddWeight loop shift that vertex's tail on every insert: 23 s
// for 1.5 MB. The bulk build sorts once (60 ms).
func TestReadGraphDescendingStarIsNotQuadratic(t *testing.T) {
	const leaves = 100_000
	var doc bytes.Buffer
	fmt.Fprintf(&doc, `{"version":1,"n":%d,"labels":[""%s],"edges":[`, leaves+1, strings.Repeat(`,""`, leaves))
	for v := leaves; v > 0; v-- {
		fmt.Fprintf(&doc, "[0,%d,1.5],", v)
	}
	doc.Truncate(doc.Len() - 1)
	doc.WriteString("]}")
	start := time.Now()
	g, err := ReadGraph(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("reading a %d-leaf descending star took %v", leaves, took)
	}
	if len(g.SortedNeighbors(0)) != leaves || g.Strength(0) != 1.5*leaves || g.Weight(0, leaves) != 1.5 || g.Weight(leaves/2, 0) != 1.5 {
		t.Fatalf("star misread: degree %d, strength %v", len(g.SortedNeighbors(0)), g.Strength(0))
	}
	for i, e := range g.SortedNeighbors(0) {
		if e.V != i+1 {
			t.Fatalf("neighbour %d of the hub is %d", i, e.V)
		}
	}
}

// skipUnderRace skips a test that counts allocations: the race detector's
// instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
}

// Reading a dense graph stays inside one allocation budget at 256
// vertices as at 1024 — the window, the edge chunks (128 of 4096 pairs at
// n = 1024), the growth of the label buffer and its index, the one string
// all labels share, the adjacency — and inside twice the finished graph
// in bytes. An allocation per label would cost 1024 more at n = 1024, one
// per edge 32,640 more at n = 256; a copy of the document breaks the
// byte bound.
func TestReadGraphAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const budget = 200
	for _, n := range []int{256, 1024} {
		g, labelBytes := graph.New(n), 0
		for u := 0; u < n; u++ {
			g.SetLabel(u, fmt.Sprintf("site-%d.host-%d", u/32, u))
			labelBytes += len(g.Label(u))
			for v := u + 1; v < n; v++ {
				g.AddWeight(u, v, 1+float64(u*n+v)/7)
			}
		}
		var doc bytes.Buffer
		if err := WriteGraph(&doc, g); err != nil {
			t.Fatal(err)
		}
		read := func() {
			if _, err := ReadGraph(bytes.NewReader(doc.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(2, read); allocs > budget {
			t.Errorf("ReadGraph of %d vertices made %v allocations, budget %d", n, allocs, budget)
		}
		// The finished graph: two 16-byte adjacency entries per edge, and per
		// vertex a slice header, a strength and a label.
		finished := uint64(2*16*g.EdgeCount() + n*(24+8+16) + labelBytes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*finished {
			t.Errorf("ReadGraph of %d vertices allocated %d bytes for a graph of %d", n, got, finished)
		}
	}
}

// Errors say where: the offset of the offending byte, or of the end of the
// token or document that is wrong.
func TestReadGraphErrorsCarryOffset(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`[1]`, "offset 0"},
		{`{"version":1,"n":2;`, "offset 18"},
		{`{"version":1,"n":2,"labels":["a","b"],"edges":[[0,1,-4]]}`, "offset 54"},
		{`{"version":1,"n":2,"labels":["a","b"],"edges":[[0,1.5,4]]}`, "offset 53"},
		{`{"version":1,"n":2,"labels":["a","b"],"edges":[[0,1]]}`, "offset 51"},
		{`{"version":1,"n":2,"labels":["a","b"],"edges":[[0,1,NaN]]}`, "offset 52"},
		{`{"version":1,"n":2,"labels":["a","b"],"colour":1}`, "offset 47"},
		{`{"version":1,"n":2,"labels":["a","b\q"]}`, "offset 38"},
		{`{"version":2,"n":1,"labels":["a"]}`, "unsupported graph version 2 at offset 34"},
		{`{"version":1,"n":3,"labels":["a"]}`, "1 labels for 3 vertices at offset 34"},
		{`{"version":1,"edges":[[0,1,1],[5,0,1]],"n":2,"labels":["a","b"]}`, "edge 1 names vertex 5 of 2 at offset 64"},
		{`{"version":1,"n":2,"labels":["a","b"],"edges":[[0,1,1e308],[0,1,1e308]]}`, "overflow at offset 72"},
	} {
		_, err := ReadGraph(strings.NewReader(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s\n\terror %v, want it to say %q", c.doc, err, c.want)
		}
	}
}

// A document that stops early is an io.ErrUnexpectedEOF wherever it
// stops, the empty document included.
func TestReadGraphTruncatedIsUnexpectedEOF(t *testing.T) {
	for _, g := range []*graph.Graph{sample(), graph.New(0)} { // the second writes nulls
		var whole bytes.Buffer
		if err := WriteGraph(&whole, g); err != nil {
			t.Fatal(err)
		}
		doc := bytes.TrimSpace(whole.Bytes())
		for cut := 0; cut < len(doc); cut++ {
			_, err := ReadGraph(bytes.NewReader(doc[:cut]))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut at %d of %d: %v", cut, len(doc), err)
			}
			if want := fmt.Sprintf("offset %d", cut); !strings.Contains(err.Error(), want) {
				t.Fatalf("cut at %d: %v, want %s", cut, err, want)
			}
		}
		if _, err := ReadGraph(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
}

// A failing reader's error comes back as it is, at whatever point of the
// document it strikes, and one byte at a time is as good as all at once.
func TestReadGraphReturnsReaderError(t *testing.T) {
	var whole bytes.Buffer
	if err := WriteGraph(&whole, sample()); err != nil {
		t.Fatal(err)
	}
	doc := whole.Bytes()
	diskErr := errors.New("disk on fire")
	for _, cut := range []int{0, 1, 20, len(doc) / 2, len(doc) - 3} {
		r := io.MultiReader(bytes.NewReader(doc[:cut]), iotest.ErrReader(diskErr))
		if _, err := ReadGraph(r); err != diskErr {
			t.Errorf("reader failing after %d bytes: got %v", cut, err)
		}
	}
	g, err := ReadGraph(iotest.OneByteReader(bytes.NewReader(doc)))
	if err != nil || !sameGraph(g, sample()) {
		t.Errorf("one byte at a time: %v", err)
	}
}

// LoadGraph says which file a bad document is in and keeps the cause.
func TestLoadGraphErrorNamesFile(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		cause     error
	}{
		{"truncated.json", `{"version":1,"n":2,"labels":["a",`, io.ErrUnexpectedEOF},
		{"bad.json", `{"version":1,"n":2,"labels":["a","b"],"edges":[[0,2,1]]}`, nil},
	} {
		path := filepath.Join(t.TempDir(), c.name)
		if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadGraph(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: error %v does not name the file and the offset", c.name, err)
		}
		if c.cause != nil && !errors.Is(err, c.cause) {
			t.Errorf("%s: error %v lost its cause %v", c.name, err, c.cause)
		}
	}
	if _, err := LoadGraph(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}

// A token that does not fit the 64 KB window — a long label, a long
// number, white space without end — is read whole all the same.
func TestReadGraphTokensLargerThanWindow(t *testing.T) {
	long := strings.Repeat("é-label-", 20_000) // 180 KB, multi-byte runes across every window edge
	pad := strings.Repeat(" \n\t\r", 40_000)
	zeros := strings.Repeat("0", 100_000)
	doc := `{"version":1,` + pad + `"n":2,"labels":["` + long + `","é` + long + `"],"edges":[[0,1,1.5` + zeros + `e0],` + pad + `[1,1,0.` + zeros + `1]]}`
	for _, r := range []io.Reader{strings.NewReader(doc), iotest.OneByteReader(strings.NewReader(doc))} {
		g, err := ReadGraph(r)
		if err != nil {
			t.Fatal(err)
		}
		if g.Label(0) != long || g.Label(1) != "é"+long || g.Weight(0, 1) != 1.5 || g.EdgeCount() != 1 {
			t.Fatalf("misread: labels of %d and %d bytes, weight %v, %d edges", len(g.Label(0)), len(g.Label(1)), g.Weight(0, 1), g.EdgeCount())
		}
	}
}

// The 64 KB window's edge may fall anywhere: with it put before every
// byte of one triple and of one escaped label, and after the last, each
// read is the decoder's graph bit for bit.
func TestReadGraphTripleAcrossWindow(t *testing.T) {
	const window = 64 << 10
	var whole bytes.Buffer
	if err := WriteGraph(&whole, archiveGraphs()["escapes"]); err != nil {
		t.Fatal(err)
	}
	doc := whole.Bytes()
	for _, tok := range []string{"[\n      3,\n      3,\n      2.5\n    ]", `"quote\"back\\slash"`} {
		start := bytes.Index(doc, []byte(tok))
		if start < 0 {
			t.Fatalf("%q is not in the document", tok)
		}
		for at := start; at <= start+len(tok); at++ {
			padded := append(bytes.Repeat([]byte(" "), window-at), doc...)
			if _, err, _ := readBoth(t, padded); err != nil {
				t.Fatalf("window edge at byte %d of %q: %v", at-start, tok, err)
			}
		}
	}
}

// plainTriple, the one-pass reader of a triple inside the window, takes
// every triple WriteGraph writes but those with a weight in exponent form,
// reads it as triple does, and consumes nothing of a triple it refuses.
func TestPlainTripleTakesWhatWriteGraphWrites(t *testing.T) {
	for name, g := range archiveGraphs() {
		var doc bytes.Buffer
		if err := WriteGraph(&doc, g); err != nil {
			t.Fatal(err)
		}
		const open = `"edges": [`
		start := bytes.Index(doc.Bytes(), []byte(open))
		if start < 0 {
			continue // "edges": null
		}
		// The window is the whole document, so the scanner never refills.
		s := &graphScanner{win: doc.Bytes(), pos: start + len(open)}
		for i, e := range g.Edges() {
			if !s.more(']', i == 0) {
				t.Fatalf("%s: edge %d: %v", name, i, s.err)
			}
			at := s.pos
			u, v, w, ok := s.plainTriple()
			if exponent := bytes.ContainsAny(appendFloat(nil, e.Weight), "eE"); ok == exponent {
				t.Errorf("%s: edge %d, weight %v: plainTriple took it %v, want %v", name, i, e.Weight, ok, !exponent)
			}
			if !ok {
				if s.pos != at {
					t.Fatalf("%s: edge %d: refused triple consumed %d bytes", name, i, s.pos-at)
				}
				u, v, w = s.triple(i)
			}
			if s.err != nil || u != e.U || v != e.V || math.Float64bits(w) != math.Float64bits(e.Weight) {
				t.Fatalf("%s: edge %d read as (%d,%d,%v), want (%d,%d,%v): %v", name, i, u, v, w, e.U, e.V, e.Weight, s.err)
			}
		}
		if s.more(']', false) || s.err != nil {
			t.Fatalf("%s: edges do not end after %d triples: %v", name, g.EdgeCount(), s.err)
		}
	}
}
