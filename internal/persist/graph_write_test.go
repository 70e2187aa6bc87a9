package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// writeGraphViaEncoder is the writer WriteGraph replaced, kept as the
// oracle: the whole document through encoding/json.
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

func TestWriteGraphMatchesEncoder(t *testing.T) {
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

	rng := rand.New(rand.NewSource(5))
	random := graph.New(40)
	for k := 0; k < 400; k++ {
		random.AddWeight(rng.Intn(40), rng.Intn(40), math.Exp(60*rng.Float64()-30))
	}
	graphs["random"] = random

	for name, g := range graphs {
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

// FuzzReadGraph feeds ReadGraph arbitrary bytes. It must never panic, and
// whatever it accepts must be a fixed point of the archive format: written
// out it reads back as an equal graph, and writing that gives the same
// bytes again. The seed corpus is in testdata/fuzz/FuzzReadGraph.
func FuzzReadGraph(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteGraph(&valid, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
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
