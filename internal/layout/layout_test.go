package layout

import (
	"encoding/xml"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// clusteredGraph returns two tight 4-cliques (weight 10) joined by one
// weak edge (weight 1), plus the truth labels.
func clusteredGraph() (*graph.Graph, []int) {
	g := graph.New(8)
	truth := make([]int, 8)
	for side := 0; side < 2; side++ {
		base := side * 4
		for i := 0; i < 4; i++ {
			truth[base+i] = side
			for j := i + 1; j < 4; j++ {
				g.AddWeight(base+i, base+j, 10)
			}
		}
	}
	g.AddWeight(0, 4, 1)
	return g, truth
}

func TestKamadaKawaiSeparatesClusters(t *testing.T) {
	g, truth := clusteredGraph()
	pos := KamadaKawai(g)
	var intra, inter, nIntra, nInter float64
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			d := math.Hypot(pos[i].X-pos[j].X, pos[i].Y-pos[j].Y)
			if truth[i] == truth[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	if intra/nIntra >= inter/nInter {
		t.Fatalf("mean intra distance %.3f >= inter %.3f: layout did not separate clusters",
			intra/nIntra, inter/nInter)
	}
}

func TestKamadaKawaiReducesStress(t *testing.T) {
	g, _ := clusteredGraph()
	// Initial circle (what the optimiser starts from).
	init := make([]Point, g.N())
	for i := range init {
		angle := 2 * math.Pi * float64(i) / float64(g.N())
		init[i] = Point{X: math.Cos(angle), Y: math.Sin(angle)}
	}
	pos := KamadaKawai(g)
	if Stress(g, pos) >= Stress(g, init) {
		t.Fatalf("optimised stress %.3f not below initial %.3f", Stress(g, pos), Stress(g, init))
	}
}

func TestKamadaKawaiEdgeLengthInverseToWeight(t *testing.T) {
	// A path a -10- b -1- c: the heavy edge should be drawn much shorter.
	g := graph.New(3)
	g.AddWeight(0, 1, 10)
	g.AddWeight(1, 2, 1)
	pos := KamadaKawai(g)
	dHeavy := math.Hypot(pos[0].X-pos[1].X, pos[0].Y-pos[1].Y)
	dLight := math.Hypot(pos[1].X-pos[2].X, pos[1].Y-pos[2].Y)
	if dHeavy >= dLight {
		t.Fatalf("heavy edge drawn %.3f, light %.3f; want heavy < light", dHeavy, dLight)
	}
}

func TestKamadaKawaiHandlesTrivialGraphs(t *testing.T) {
	if got := KamadaKawai(graph.New(0)); len(got) != 0 {
		t.Fatal("empty graph should give empty layout")
	}
	if got := KamadaKawai(graph.New(1)); len(got) != 1 {
		t.Fatal("single vertex layout wrong size")
	}
	// Disconnected pairs must not produce NaN positions.
	g := graph.New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(2, 3, 1)
	for _, p := range KamadaKawai(g) {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatal("NaN position on disconnected graph")
		}
	}
}

func TestKamadaKawaiDeterministic(t *testing.T) {
	g, _ := clusteredGraph()
	a := KamadaKawai(g)
	b := KamadaKawai(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("layout not deterministic for fixed options")
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g, truth := clusteredGraph()
	g.SetLabel(0, "bordeplage-0")
	pos := KamadaKawai(g)
	var sb strings.Builder
	if err := WriteDOT(&sb, g, pos, RenderOptions{Truth: truth, EdgeFraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph tomography {", "bordeplage-0", "diamond", "ellipse", "pos=", "--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Top-50% filter: 13 edges total -> 6 or 7 rendered.
	lines := strings.Count(out, " -- ")
	if lines < 5 || lines > 8 {
		t.Fatalf("DOT rendered %d edges, want about half of 13", lines)
	}
}

// A fraction outside (0, 1), NaN included, draws every edge: int(NaN)
// is no slice bound.
func TestEdgeFractionOutsideUnitIntervalDrawsAll(t *testing.T) {
	g, _ := clusteredGraph()
	pos := KamadaKawai(g)
	for _, f := range []float64{0, 1, -1, math.NaN()} {
		var sb strings.Builder
		if err := WriteDOT(&sb, g, pos, RenderOptions{EdgeFraction: f}); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(sb.String(), " -- "); n != 13 {
			t.Fatalf("EdgeFraction %g rendered %d of 13 edges", f, n)
		}
	}
}

func TestWriteDOTSizeMismatch(t *testing.T) {
	g, _ := clusteredGraph()
	var sb strings.Builder
	if err := WriteDOT(&sb, g, make([]Point, 3), RenderOptions{}); err == nil {
		t.Fatal("expected error for mismatched positions")
	}
}

func TestWriteSVG(t *testing.T) {
	g, truth := clusteredGraph()
	pos := KamadaKawai(g)
	var sb strings.Builder
	if err := WriteSVG(&sb, g, pos, RenderOptions{Truth: truth}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(out, "<circle") != 8 {
		t.Fatalf("SVG has %d circles, want 8", strings.Count(out, "<circle"))
	}
	if strings.Count(out, "<line") != 13 {
		t.Fatalf("SVG has %d lines, want all 13 edges", strings.Count(out, "<line"))
	}
	if strings.Contains(out, "NaN") {
		t.Fatal("SVG contains NaN coordinates")
	}
}

// Vertex labels come from spec host prefixes, which Spec.Validate does
// not restrict: markup in a label must reach the SVG as text.
func TestWriteSVGEscapesLabels(t *testing.T) {
	g, truth := clusteredGraph()
	g.SetLabel(0, "a<b&c")
	var sb strings.Builder
	if err := WriteSVG(&sb, g, KamadaKawai(g), RenderOptions{Truth: truth}); err != nil {
		t.Fatal(err)
	}
	dec := xml.NewDecoder(strings.NewReader(sb.String()))
	var titles []string
	inTitle := false
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, sb.String())
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			inTitle = tok.Name.Local == "title"
		case xml.CharData:
			if inTitle {
				titles = append(titles, string(tok))
			}
		case xml.EndElement:
			inTitle = false
		}
	}
	if len(titles) != 8 || titles[0] != "a<b&c" {
		t.Fatalf("titles = %q, want 8 with the first a<b&c", titles)
	}
}

func TestStressZeroForPerfectEmbedding(t *testing.T) {
	// A single unit edge embedded at distance exactly 1 has zero stress.
	g := graph.New(2)
	g.AddWeight(0, 1, 5) // normalised target length = 1
	pos := []Point{{0, 0}, {1, 0}}
	if s := Stress(g, pos); s > 1e-12 {
		t.Fatalf("Stress = %g, want 0", s)
	}
}
