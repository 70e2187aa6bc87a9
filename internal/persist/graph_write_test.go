package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// GraphDoc, EncodeGraph, DecodeGraph and readGraphViaDecoder are the
// encoding/json graph codec ReadGraph and WriteGraph replaced, kept
// verbatim as the oracle both are held to.
//
// GraphDoc is the JSON form of a measurement graph.
type GraphDoc struct {
	// Version guards the format.
	Version int `json:"version"`
	// N is the vertex count.
	N int `json:"n"`
	// Labels are the vertex display names.
	Labels []string `json:"labels"`
	// Edges hold [u, v, weight] triples with u <= v.
	Edges [][3]float64 `json:"edges"`
}

// EncodeGraph converts a graph to its document form.
func EncodeGraph(g *graph.Graph) *GraphDoc {
	doc := &GraphDoc{Version: formatVersion, N: g.N()}
	for v := 0; v < g.N(); v++ {
		doc.Labels = append(doc.Labels, g.Label(v))
	}
	for _, e := range g.Edges() {
		doc.Edges = append(doc.Edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
	}
	return doc
}

// DecodeGraph reconstructs a graph from its document form.
func DecodeGraph(doc *GraphDoc) (*graph.Graph, error) {
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("persist: unsupported graph version %d", doc.Version)
	}
	if doc.N < 0 || len(doc.Labels) != doc.N {
		return nil, fmt.Errorf("persist: %d labels for %d vertices", len(doc.Labels), doc.N)
	}
	// Validate everything before building, counting degrees on the way so
	// the adjacency is allocated once at its final size.
	degrees := make([]int, doc.N)
	for i, e := range doc.Edges {
		u, v, w := e[0], e[1], e[2]
		if n := float64(doc.N); u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("persist: edge %d endpoints (%v,%v) out of range", i, u, v)
		}
		if u != math.Trunc(u) || v != math.Trunc(v) {
			return nil, fmt.Errorf("persist: edge %d endpoints (%v,%v) are not integers", i, u, v)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("persist: edge %d has invalid weight %v", i, w)
		}
		if w > 0 {
			degrees[int(u)]++
			if u != v {
				degrees[int(v)]++
			}
		}
	}
	g := graph.New(doc.N)
	for v, l := range doc.Labels {
		g.SetLabel(v, l)
	}
	g.Reserve(degrees)
	for _, e := range doc.Edges {
		if e[2] > 0 {
			g.AddWeight(int(e[0]), int(e[1]), e[2])
		}
	}
	// Repeated edges accumulate, and finite weights can sum past the
	// largest float; such a graph could not be written back.
	if math.IsInf(g.TotalWeight(), 0) {
		return nil, fmt.Errorf("persist: edge weights overflow")
	}
	return g, nil
}

// readGraphViaDecoder is the reader ReadGraph replaced: the whole document
// through encoding/json, then DecodeGraph.
func readGraphViaDecoder(r io.Reader) (*graph.Graph, error) {
	var doc GraphDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return DecodeGraph(&doc)
}

// writeGraphViaEncoder is the writer WriteGraph replaced: the whole
// document through encoding/json.
func writeGraphViaEncoder(w io.Writer, g *graph.Graph) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(EncodeGraph(g))
}

// weightsAtFormatSwitches are float64s on both sides of every branch in
// encoding/json's float formatting: plain digits inside [1e-6, 1e21),
// exponent form outside, and the e-0N → e-N clean-up.
var weightsAtFormatSwitches = []float64{
	1, 2, 1023, 0.5, 0.1, 1.0 / 3, 1234.5678,
	1e-6, 9.99999e-7, 1e-7, 1.5e-9, 1e-9, 1e-10, 2.5e-100,
	1e20, 9.99999999999999e20, 1e21, 1e22, 123456789012345680000,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-320,
	math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), math.Nextafter(1, 2),
}

// archiveGraphs are the graphs both codecs are compared on: empty and
// edgeless ones, labels needing every kind of escape, weights at every
// switch of the float format, and a random multigraph.
func archiveGraphs() map[string]*graph.Graph {
	graphs := map[string]*graph.Graph{
		"empty":    graph.New(0),
		"edgeless": graph.New(3),
		"sample":   sample(),
	}

	escapes := graph.New(8)
	for v, l := range []string{`quote"back\slash`, "<script>&amp;</script>", "naïve-ノード-🌐", "bad\xffutf8\xc3",
		"ctl\x00\x1f\b\f\n\r\t", "line\u2028sep\u2029", "", "plain"} {
		escapes.SetLabel(v, l)
	}
	escapes.AddWeight(7, 0, 1)
	escapes.AddWeight(3, 3, 2.5)
	graphs["escapes"] = escapes

	weights := graph.New(len(weightsAtFormatSwitches) + 1)
	for i, w := range weightsAtFormatSwitches {
		weights.AddWeight(i, i+1, w)
		weights.AddWeight(i, i, w) // and as a self-loop
	}
	graphs["weights"] = weights

	// Rows whose neighbours run across every digit width (9/10, 99/100,
	// 999/1000, 9999/10000) in steps of one and in jumps, self-loops, rows
	// with no neighbour above them, and weights in exponent form.
	widths := graph.New(10003)
	for i, w := range []int{1, 10, 100, 1000, 10000} {
		for v := max(w-2, 0); v <= w+1; v++ {
			widths.AddWeight(5, v, float64(v)+0.25)
			widths.AddWeight(w-1, v, weightsAtFormatSwitches[(i+v)%len(weightsAtFormatSwitches)])
		}
		widths.AddWeight(w, w, 1e-7)
	}
	widths.AddWeight(10002, 3, 1e22)
	graphs["widths"] = widths

	rng := rand.New(rand.NewSource(5))
	random := graph.New(40)
	for k := 0; k < 400; k++ {
		random.AddWeight(rng.Intn(40), rng.Intn(40), math.Exp(60*rng.Float64()-30))
	}
	graphs["random"] = random
	graphs["chunks"] = manyChunks()
	return graphs
}

// manyChunks is a graph of several of WriteGraph's chunks per worker:
// row 0 alone is longer than a chunk, and the rows after it are of
// uneven lengths, mixing runs of consecutive neighbours with jumps, so
// chunk borders fall inside rows.
func manyChunks() *graph.Graph {
	const n = 3000
	rng := rand.New(rand.NewSource(9))
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddWeight(0, v, float64(v)+0.5)
	}
	for u := 1; u < n; u += 1 + rng.Intn(4) {
		for v, k := u, rng.Intn(12); v < n && k > 0; v, k = v+1+rng.Intn(3)*rng.Intn(40), k-1 {
			w := math.Exp(60*rng.Float64() - 30)
			if rng.Intn(4) == 0 {
				w = weightsAtFormatSwitches[rng.Intn(len(weightsAtFormatSwitches))]
			}
			g.AddWeight(u, v, w)
		}
	}
	if g.EdgeCount() < 6*chunkEdges || len(g.UpperNeighbors(0)) <= chunkEdges {
		panic(fmt.Sprintf("manyChunks: %d edges, %d in row 0, for chunks of %d", g.EdgeCount(), len(g.UpperNeighbors(0)), chunkEdges))
	}
	return g
}

func TestWriteGraphMatchesEncoder(t *testing.T) {
	for name, g := range archiveGraphs() {
		var got, want bytes.Buffer
		if err := WriteGraph(&got, g); err != nil {
			t.Fatalf("%s: WriteGraph: %v", name, err)
		}
		if err := writeGraphViaEncoder(&want, g); err != nil {
			t.Fatalf("%s: encoder: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteGraph differs from json.Encoder\n got: %q\nwant: %q", name, got.Bytes(), want.Bytes())
		}
	}
}

// A WriteGraph call allocates for its header and its writer, never per
// edge: a complete graph costs what a ring on as many vertices does.
func TestWriteGraphAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const n = 256
	ring, complete := graph.New(n), graph.New(n)
	for u := 0; u < n; u++ {
		ring.SetLabel(u, fmt.Sprint("host-", u))
		complete.SetLabel(u, ring.Label(u))
		ring.AddWeight(u, (u+1)%n, 1.5)
		for v := u; v < n; v++ {
			complete.AddWeight(u, v, float64(u*n+v)/7)
		}
	}
	// A collection between the measured writes empties encoding/json's
	// sync.Pools, whose refill is the runtime's, not WriteGraph's: start
	// from a collected heap and count with the collector off.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := WriteGraph(io.Discard, g); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(ring), allocs(complete); many > few {
		t.Errorf("WriteGraph made %v allocations for %d edges, %v for %d", many, complete.EdgeCount(), few, ring.EdgeCount())
	}
}

// testing.AllocsPerRun runs at GOMAXPROCS(1), so the budget above never
// sees a second worker. At GOMAXPROCS(2) a write still allocates per
// call, not per chunk: a complete graph on 512 vertices (129 chunks)
// costs no more allocations than a complete graph on 256 of them (33
// chunks) with the same header.
func TestWriteGraphParallelAllocBudget(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 512
	complete := func(k int) *graph.Graph {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			g.SetLabel(u, fmt.Sprint("host-", u))
			for v := u; u < k && v < k; v++ {
				g.AddWeight(u, v, float64(u*n+v)/7)
			}
		}
		return g
	}
	// What the runtime allocates for itself is not WriteGraph's: a worker
	// starts on an exited goroutine or a new one, and a goroutine blocks
	// on a channel with a waiter from its P's cache or a new one. So
	// leave plenty of both on every P, and no collection to empty the
	// caches while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var exited sync.WaitGroup
	start := make(chan struct{})
	for range 1024 {
		exited.Add(1)
		go func() {
			defer exited.Done()
			<-start
		}()
	}
	close(start)
	exited.Wait()
	mallocs := func(g *graph.Graph) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := WriteGraph(io.Discard, g); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small, large := complete(n/2), complete(n)
	few, many := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 10 {
		few, many = min(few, mallocs(small)), min(many, mallocs(large))
	}
	if many > few {
		t.Errorf("WriteGraph made %d allocations for %d edges, %d for %d", many, large.EdgeCount(), few, small.EdgeCount())
	}
}

// A weight JSON cannot carry is an error from both writers, not a
// document with a hole in it.
func TestWriteGraphRejectsUnencodableWeight(t *testing.T) {
	for _, w := range []float64{math.Inf(1), math.NaN()} {
		g := graph.New(2)
		g.AddWeight(0, 1, w)
		if err := WriteGraph(io.Discard, g); err == nil {
			t.Errorf("WriteGraph accepted weight %v", w)
		}
		if err := writeGraphViaEncoder(io.Discard, g); err == nil {
			t.Errorf("json.Encoder accepted weight %v", w)
		}
	}
}

// The error names the edge lower endpoint first, as the document would.
func TestWriteGraphNamesUnencodableEdge(t *testing.T) {
	g := graph.New(6)
	g.AddWeight(0, 1, 1)
	g.AddWeight(5, 2, math.NaN())
	err := WriteGraph(io.Discard, g)
	if want := "persist: edge (2,5) has unencodable weight NaN"; err == nil || err.Error() != want {
		t.Fatalf("WriteGraph error %v, want %q", err, want)
	}
}

// Default labels are not stored but formatted on demand; an archive cannot
// tell. An unlabelled graph writes "v0", "v1", ..., an explicitly empty
// label writes "", and either document reads back to a graph that writes
// it again byte for byte.
func TestLabelsRoundTrip(t *testing.T) {
	unlabelled := graph.New(3)
	unlabelled.AddWeight(0, 2, 1)
	relabelled := graph.New(3)
	relabelled.SetLabel(1, "")
	relabelled.AddWeight(0, 2, 1)
	for name, c := range map[string]struct {
		g      *graph.Graph
		labels string
	}{
		"unlabelled": {unlabelled, `"labels": [
    "v0",
    "v1",
    "v2"
  ]`},
		"empty label": {relabelled, `"labels": [
    "v0",
    "",
    "v2"
  ]`},
	} {
		var doc, again bytes.Buffer
		if err := WriteGraph(&doc, c.g); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(doc.String(), c.labels) {
			t.Errorf("%s: document %s\nwant labels %s", name, doc.Bytes(), c.labels)
		}
		read, err := ReadGraph(bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteGraph(&again, read); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), doc.Bytes()) {
			t.Errorf("%s: rewritten document differs\n got: %s\nwant: %s", name, again.Bytes(), doc.Bytes())
		}
	}
}

// WriteGraph returns the first error in document order, and only once
// every worker has exited: whichever chunk a worker finds its NaN in,
// and wherever the writer fails.
func TestWriteGraphErrorsLeaveNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	edges := manyChunks().Edges()
	withNaN := func(at ...int) *graph.Graph {
		g := manyChunks()
		for _, i := range at {
			g.AddWeight(edges[i].U, edges[i].V, math.NaN())
		}
		return g
	}
	unencodable := func(i int) string {
		return fmt.Sprintf("persist: edge (%d,%d) has unencodable weight NaN", edges[i].U, edges[i].V)
	}
	var doc bytes.Buffer
	if err := WriteGraph(&doc, manyChunks()); err != nil {
		t.Fatal(err)
	}
	late, early := len(edges)-5, len(edges)/3
	type errorCase struct {
		name string
		g    *graph.Graph
		w    io.Writer
		want func(error) bool
	}
	cases := []errorCase{
		{"NaN in the last chunk", withNaN(late), io.Discard,
			func(err error) bool { return err != nil && err.Error() == unencodable(late) }},
		{"NaNs in two chunks", withNaN(late, early), io.Discard,
			func(err error) bool { return err != nil && err.Error() == unencodable(early) }},
	}
	// In the header, at the first chunk, inside a middle one, in the trailer.
	first := bytes.Index(doc.Bytes(), []byte(`"edges": [`)) + len(`"edges": [`)
	for _, k := range []int{0, 100, first, doc.Len() / 2, doc.Len() - 3} {
		cases = append(cases, errorCase{fmt.Sprintf("writer failing after %d bytes", k), manyChunks(), &failAfter{k},
			func(err error) bool { return errors.Is(err, errDiskFull) }})
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		if err := WriteGraph(c.w, c.g); !c.want(err) {
			t.Errorf("%s: WriteGraph returned %v", c.name, err)
		}
		// A worker's last step, after WriteGraph saw it finish, is to exit.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive WriteGraph", c.name, runtime.NumGoroutine()-before)
			}
		}
	}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts its first left bytes, then fails.
type failAfter struct{ left int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errDiskFull
	}
	f.left -= len(p)
	return len(p), nil
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestWriteGraphReportsWriteError(t *testing.T) {
	if err := WriteGraph(failingWriter{}, sample()); err == nil {
		t.Fatal("write error swallowed")
	}
}

// sameGraph reports whether two graphs have the same vertices, labels and
// edges, weights compared as bits.
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.Label(v) != b.Label(v) {
			return false
		}
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i].U != eb[i].U || ea[i].V != eb[i].V || math.Float64bits(ea[i].Weight) != math.Float64bits(eb[i].Weight) {
			return false
		}
	}
	return true
}

// readBoth reads one document with ReadGraph and with the decoder it
// replaced and holds ReadGraph to being no more permissive and no
// different: what it accepts the decoder accepts, as the same graph —
// labels, edges, and the bits of every weight, Strength and TotalWeight.
func readBoth(t *testing.T, data []byte) (g *graph.Graph, err, oracleErr error) {
	t.Helper()
	g, err = ReadGraph(bytes.NewReader(data))
	want, oracleErr := readGraphViaDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err, oracleErr
	}
	if oracleErr != nil {
		t.Fatalf("ReadGraph accepts what the decoder rejects (%v)\n%q", oracleErr, data)
	}
	if !sameGraph(g, want) || math.Float64bits(g.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("ReadGraph and the decoder read different graphs (total %v, %v)\n%q", g.TotalWeight(), want.TotalWeight(), data)
	}
	for v := 0; v < g.N(); v++ {
		if math.Float64bits(g.Strength(v)) != math.Float64bits(want.Strength(v)) {
			t.Fatalf("Strength(%d) = %v, decoder %v\n%q", v, g.Strength(v), want.Strength(v), data)
		}
	}
	return g, nil, nil
}

// FuzzReadGraph feeds ReadGraph arbitrary bytes. It must never panic;
// whatever it accepts the encoding/json reader must accept as the same
// graph (readBoth); and that graph must be a fixed point of the archive
// format: written out it reads back as an equal graph, and writing that
// gives the same bytes again. The seed corpus is in
// testdata/fuzz/FuzzReadGraph.
func FuzzReadGraph(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteGraph(&valid, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err, _ := readBoth(t, data)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteGraph(&first, g); err != nil {
			t.Fatalf("accepted graph cannot be written: %v", err)
		}
		back, err := ReadGraph(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written graph cannot be read: %v\n%s", err, first.Bytes())
		}
		if !sameGraph(g, back) {
			t.Fatalf("graph changed across write and read\n%s", first.Bytes())
		}
		if err := WriteGraph(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs from first\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// dense1k is the shape of the repo benchmark's analyze-1k workload: the
// complete graph on 1024 vertices, 523 776 edges, a 27 MB document.
func dense1k() *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	g := graph.New(1024)
	for u := 0; u < 1024; u++ {
		for v := u + 1; v < 1024; v++ {
			if u/64 == v/64 {
				g.AddWeight(u, v, 40+40*rng.Float64())
			} else {
				g.AddWeight(u, v, 2+6*rng.Float64())
			}
		}
	}
	return g
}

func BenchmarkWriteGraph1k(b *testing.B) {
	g := dense1k()
	var doc bytes.Buffer
	if err := WriteGraph(&doc, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteGraph(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkGraph *graph.Graph

func BenchmarkReadGraph1k(b *testing.B) {
	var doc bytes.Buffer
	if err := WriteGraph(&doc, dense1k()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ReadGraph(bytes.NewReader(doc.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}
