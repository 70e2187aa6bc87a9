package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The SVG renderers below are the plot layer `campaign serve` exposes at
// /plots/*.svg: zero-dependency, deterministic output. Byte-stability is
// a contract, not an accident — the HTTP service keys ETags on the
// archive stamp, so two renders of the same data must be the same bytes
// (no timestamps, no randomness, fixed float formatting).
//
// Colors are a validated colorblind-safe categorical order (adjacent-pair
// CVD ΔE >= 8 on the light surface); series are assigned hues in fixed
// slot order, never cycled.

var svgPalette = []string{
	"#2a78d6", // blue
	"#eb6834", // orange
	"#1baf7a", // aqua
	"#eda100", // yellow
	"#e87ba4", // magenta
	"#008300", // green
	"#4a3aa7", // violet
	"#e34948", // red
}

const (
	svgSurface   = "#fcfcfb"
	svgInk       = "#0b0b0b"
	svgInkMuted  = "#52514e"
	svgGrid      = "#e7e6e2"
	svgFontStack = "system-ui,-apple-system,sans-serif"
)

// svgColor assigns slot colors in fixed order; overflow series (slot
// beyond the validated palette) fold to muted ink rather than cycling
// hues — a 9th series should have been faceted, not repainted.
func svgColor(i int) string {
	if i < len(svgPalette) {
		return svgPalette[i]
	}
	return svgInkMuted
}

// svgF renders a coordinate with fixed precision so identical data
// produces identical bytes.
func svgF(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// svgLabel renders an axis value compactly (shortest of ~4 significant
// digits).
func svgLabel(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func svgEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// SVGTick is one explicit x-axis tick: a plot position and its label.
// Plots over categorical coordinates (scenario names, boolean axes) use
// index positions with the category as the label.
type SVGTick struct {
	X     float64
	Label string
}

type svgSeries struct {
	name string
	xs   []float64
	ys   []float64
}

// SVGPlot renders one or more (x, y) series as an SVG line chart, each
// series a polyline through its points with a marker on every point — the
// archive service's /plots endpoints and the experiment harness's Fig. 13
// both draw with it.
type SVGPlot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // pixel width (default 640)
	Height int // pixel height (default 360)
	// YMin/YMax fix the y scale; both zero auto-scales with a little
	// headroom. Curves bounded in [0,1] (NMI, Q) read best with the
	// explicit scale.
	YMin, YMax float64
	// XTicks, when set, replaces the numeric x tick labels — the
	// categorical-axis escape hatch.
	XTicks []SVGTick
	series []svgSeries
}

// Add appends a line series. Series colors follow the fixed slot order.
func (p *SVGPlot) Add(name string, xs, ys []float64) {
	if len(xs) != len(ys) {
		panic("report: series length mismatch")
	}
	p.series = append(p.series, svgSeries{
		name: name,
		xs:   append([]float64(nil), xs...),
		ys:   append([]float64(nil), ys...),
	})
}

// WriteSVG renders the chart. Rendering is a pure function of the
// plot's fields: identical inputs yield identical bytes.
func (p *SVGPlot) WriteSVG(w io.Writer) error {
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 640
	}
	if height <= 0 {
		height = 360
	}
	const (
		left   = 56
		right  = 16
		top    = 34
		bottom = 46
	)
	pw := float64(width - left - right)
	ph := float64(height - top - bottom)

	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := p.YMin, p.YMax
	autoY := yMin == 0 && yMax == 0
	if autoY {
		yMin, yMax = math.Inf(1), math.Inf(-1)
	}
	points := 0
	for _, s := range p.series {
		for i := range s.xs {
			points++
			xMin = math.Min(xMin, s.xs[i])
			xMax = math.Max(xMax, s.xs[i])
			if autoY {
				yMin = math.Min(yMin, s.ys[i])
				yMax = math.Max(yMax, s.ys[i])
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="%s">`+"\n",
		width, height, width, height, svgFontStack)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="%s"/>`+"\n", width, height, svgSurface)
	if p.Title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="20" font-size="13" font-weight="600" fill="%s">%s</text>`+"\n",
			left, svgInk, svgEscape(p.Title))
	}
	if points == 0 {
		fmt.Fprintf(&sb, `<text x="%s" y="%s" font-size="12" fill="%s" text-anchor="middle">no data yet</text>`+"\n",
			svgF(float64(left)+pw/2), svgF(float64(top)+ph/2), svgInkMuted)
		sb.WriteString("</svg>\n")
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	if autoY { // headroom so the top marker is not clipped by the frame
		pad := (yMax - yMin) * 0.05
		yMin, yMax = yMin-pad, yMax+pad
	}
	px := func(x float64) float64 { return float64(left) + (x-xMin)/(xMax-xMin)*pw }
	py := func(y float64) float64 { return float64(top) + ph - (y-yMin)/(yMax-yMin)*ph }

	// Recessive horizontal grid with y tick labels.
	const yTicks = 4
	for i := 0; i <= yTicks; i++ {
		v := yMin + (yMax-yMin)*float64(i)/yTicks
		y := py(v)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="%s" stroke-width="1"/>`+"\n",
			left, svgF(y), width-right, svgF(y), svgGrid)
		fmt.Fprintf(&sb, `<text x="%d" y="%s" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			left-6, svgF(y+4), svgInkMuted, svgLabel(v))
	}
	// X ticks: explicit categorical labels, or numeric endpoints+midpoint.
	ticks := p.XTicks
	if len(ticks) == 0 {
		ticks = []SVGTick{
			{X: xMin, Label: svgLabel(xMin)},
			{X: (xMin + xMax) / 2, Label: svgLabel((xMin + xMax) / 2)},
			{X: xMax, Label: svgLabel(xMax)},
		}
	}
	for _, tk := range ticks {
		if tk.X < xMin || tk.X > xMax {
			continue
		}
		x := px(tk.X)
		fmt.Fprintf(&sb, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="1"/>`+"\n",
			svgF(x), svgF(float64(top)+ph), svgF(x), svgF(float64(top)+ph+4), svgInkMuted)
		fmt.Fprintf(&sb, `<text x="%s" y="%s" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
			svgF(x), svgF(float64(top)+ph+16), svgInkMuted, svgEscape(tk.Label))
	}
	// Axis labels.
	if p.XLabel != "" {
		fmt.Fprintf(&sb, `<text x="%s" y="%d" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
			svgF(float64(left)+pw/2), height-8, svgInkMuted, svgEscape(p.XLabel))
	}
	if p.YLabel != "" {
		fmt.Fprintf(&sb, `<text x="12" y="%s" font-size="11" fill="%s" text-anchor="middle" transform="rotate(-90 12 %s)">%s</text>`+"\n",
			svgF(float64(top)+ph/2), svgInkMuted, svgF(float64(top)+ph/2), svgEscape(p.YLabel))
	}

	// Series: 2px lines, 8px markers ringed with the surface so
	// overlapping marks stay separable.
	for si, s := range p.series {
		color := svgColor(si)
		var path strings.Builder
		for i := range s.xs {
			x, y := px(s.xs[i]), py(s.ys[i])
			if i == 0 {
				fmt.Fprintf(&path, "M%s %s", svgF(x), svgF(y))
			} else {
				fmt.Fprintf(&path, " L%s %s", svgF(x), svgF(y))
			}
		}
		if len(s.xs) > 1 {
			fmt.Fprintf(&sb, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`+"\n",
				path.String(), color)
		}
		for i := range s.xs {
			fmt.Fprintf(&sb, `<circle cx="%s" cy="%s" r="4" fill="%s" stroke="%s" stroke-width="1"/>`+"\n",
				svgF(px(s.xs[i])), svgF(py(s.ys[i])), color, svgSurface)
		}
	}
	// Legend (only for >= 2 series: a single series is named by the
	// title); swatch + text in ink, identity carried by the mark.
	if len(p.series) > 1 {
		x := float64(width - right)
		for si := len(p.series) - 1; si >= 0; si-- {
			s := p.series[si]
			x -= float64(7*len(s.name)) + 18
			fmt.Fprintf(&sb, `<circle cx="%s" cy="16" r="4" fill="%s"/>`+"\n", svgF(x), svgColor(si))
			fmt.Fprintf(&sb, `<text x="%s" y="20" font-size="11" fill="%s">%s</text>`+"\n",
				svgF(x+8), svgInk, svgEscape(s.name))
		}
	}
	// Frame baseline.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="%s" stroke-width="1"/>`+"\n",
		left, svgF(float64(top)+ph), width-right, svgF(float64(top)+ph), svgInkMuted)
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// Bytes renders the chart to a byte slice.
func (p *SVGPlot) Bytes() []byte {
	var sb strings.Builder
	_ = p.WriteSVG(&sb)
	return []byte(sb.String())
}

type svgBar struct {
	label string
	value float64
}

// SVGBars renders labeled values as a horizontal bar chart — the phase
// breakdown's natural form (magnitude per named phase), and the Fig. 5
// histogram's (runs per bin). Single-hue by
// design: the bars encode one measure, not identities.
type SVGBars struct {
	Title string
	Width int // pixel width (default 640)
	// Unit suffixes each value's direct label ("s" for seconds).
	Unit string
	bars []svgBar
}

// Add appends one labeled bar, in display order.
func (b *SVGBars) Add(label string, value float64) {
	b.bars = append(b.bars, svgBar{label: label, value: value})
}

// WriteSVG renders the chart; like SVGPlot, identical inputs yield
// identical bytes.
func (b *SVGBars) WriteSVG(w io.Writer) error {
	width := b.Width
	if width <= 0 {
		width = 640
	}
	const (
		left     = 120
		right    = 70
		top      = 34
		rowH     = 24
		barH     = 14
		bottomHd = 14
	)
	height := top + rowH*len(b.bars) + bottomHd
	if len(b.bars) == 0 {
		height = top + 40
	}
	var max float64
	for _, bar := range b.bars {
		max = math.Max(max, bar.value)
	}
	if max <= 0 {
		max = 1
	}
	pw := float64(width - left - right)

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="%s">`+"\n",
		width, height, width, height, svgFontStack)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="%s"/>`+"\n", width, height, svgSurface)
	if b.Title != "" {
		fmt.Fprintf(&sb, `<text x="16" y="20" font-size="13" font-weight="600" fill="%s">%s</text>`+"\n",
			svgInk, svgEscape(b.Title))
	}
	if len(b.bars) == 0 {
		fmt.Fprintf(&sb, `<text x="%s" y="%d" font-size="12" fill="%s" text-anchor="middle">no data yet</text>`+"\n",
			svgF(float64(width)/2), top+20, svgInkMuted)
		sb.WriteString("</svg>\n")
		_, err := io.WriteString(w, sb.String())
		return err
	}
	for i, bar := range b.bars {
		y := top + i*rowH
		bw := bar.value / max * pw
		if bw < 1 {
			bw = 1
		}
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			left-8, y+barH-3, svgInk, svgEscape(bar.label))
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%s" height="%d" rx="3" fill="%s"/>`+"\n",
			left, y, svgF(bw), barH, svgPalette[0])
		fmt.Fprintf(&sb, `<text x="%s" y="%d" font-size="11" fill="%s">%s%s</text>`+"\n",
			svgF(float64(left)+bw+6), y+barH-3, svgInkMuted, svgLabel(bar.value), svgEscape(b.Unit))
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// Bytes renders the chart to a byte slice.
func (b *SVGBars) Bytes() []byte {
	var sb strings.Builder
	_ = b.WriteSVG(&sb)
	return []byte(sb.String())
}
