package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestSVGPlotDeterministic(t *testing.T) {
	build := func() []byte {
		p := &SVGPlot{Title: "quality by dynamics", XLabel: "dynamics", YLabel: "NMI", YMin: 0, YMax: 1}
		p.Add("mean_nmi", []float64{0.1, 0.5, 0.9}, []float64{0.42, 0.55, 0.61})
		p.Add("mean_q", []float64{0.1, 0.5, 0.9}, []float64{0.31, 0.38, 0.40})
		return p.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("identical plots rendered different bytes")
	}
	s := string(a)
	for _, want := range []string{"<svg", "</svg>", "quality by dynamics", "mean_nmi", "mean_q", "#2a78d6", "#eb6834"} {
		if !strings.Contains(s, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	if strings.Contains(s, "no data") {
		t.Fatal("populated plot claimed no data")
	}
}

func TestSVGPlotEmpty(t *testing.T) {
	p := &SVGPlot{Title: "empty"}
	s := string(p.Bytes())
	if !strings.Contains(s, "<svg") || !strings.Contains(s, "no data yet") {
		t.Fatalf("empty plot should render a valid placeholder, got: %s", s)
	}
}

func TestSVGPlotSinglePointAndTicks(t *testing.T) {
	p := &SVGPlot{Title: "one"}
	p.Add("series", []float64{0}, []float64{3.5})
	p.XTicks = []SVGTick{{X: 0, Label: "2x2"}}
	s := string(p.Bytes())
	if !strings.Contains(s, "2x2") {
		t.Fatal("categorical tick label missing")
	}
	if !strings.Contains(s, "<circle") {
		t.Fatal("single point should render a marker")
	}
	// One series: no legend text beyond the title.
	if strings.Count(s, "series") != 0 {
		t.Fatal("single-series plot should not render a legend")
	}
}

func TestSVGPlotEscapesMarkup(t *testing.T) {
	p := &SVGPlot{Title: `<script>"x"</script>`}
	p.Add("a&b", []float64{0, 1}, []float64{1, 2})
	p.Add("c", []float64{0, 1}, []float64{2, 3})
	s := string(p.Bytes())
	if strings.Contains(s, "<script>") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(s, "a&amp;b") {
		t.Fatal("legend name not escaped")
	}
}

func TestSVGPlotMismatchedSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	(&SVGPlot{}).Add("bad", []float64{1}, []float64{1, 2})
}

func TestSVGBarsDeterministic(t *testing.T) {
	build := func() []byte {
		b := &SVGBars{Title: "phase seconds", Unit: "s"}
		b.Add("aggregate", 1.25)
		b.Add("membership", 0.5)
		b.Add("rotate", 0.125)
		return b.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("identical bar charts rendered different bytes")
	}
	s := string(a)
	for _, want := range []string{"aggregate", "membership", "rotate", "1.25s", "#2a78d6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("bars svg missing %q", want)
		}
	}
	// Single-hue rule: bars encode magnitude, not identity.
	if strings.Contains(s, "#eb6834") {
		t.Fatal("bar chart must not cycle categorical hues")
	}
}

func TestSVGBarsEmpty(t *testing.T) {
	b := &SVGBars{Title: "phases"}
	s := string(b.Bytes())
	if !strings.Contains(s, "no data yet") {
		t.Fatal("empty bars should render a placeholder")
	}
}
