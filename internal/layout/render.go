package layout

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"

	"repro/internal/graph"
)

// Shapes used to render ground-truth clusters, mirroring the paper's
// figures (diamonds, circles, triangles, ...).
var dotShapes = []string{"diamond", "ellipse", "triangle", "box", "hexagon", "invtriangle", "pentagon", "house"}

var svgColors = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f"}

// RenderOptions controls figure rendering.
type RenderOptions struct {
	// Truth labels choose node shapes/colours (nil for uniform shapes),
	// exactly like the ground-truth glyphs in Figs. 8-12.
	Truth []int
	// EdgeFraction keeps only the strongest fraction of edges in the
	// rendering (the paper draws the top 50%). A value outside (0, 1),
	// NaN included, draws all.
	EdgeFraction float64
}

// WriteDOT emits a Graphviz-compatible .dot file with pinned Kamada-Kawai
// positions, node shapes by ground-truth cluster, and the top fraction of
// edges by weight — the same presentation as the paper's figures.
// Positions are written ten times their layout coordinates (DOT pos units).
func WriteDOT(w io.Writer, g *graph.Graph, pos []Point, opts RenderOptions) error {
	if len(pos) != g.N() {
		return fmt.Errorf("layout: %d positions for %d vertices", len(pos), g.N())
	}
	const scale = 10
	if _, err := fmt.Fprintln(w, "graph tomography {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "\tlayout=neato;")
	fmt.Fprintln(w, "\toverlap=false;")
	for v := 0; v < g.N(); v++ {
		shape := "ellipse"
		if opts.Truth != nil {
			shape = dotShapes[opts.Truth[v]%len(dotShapes)]
		}
		fmt.Fprintf(w, "\t%q [shape=%s, pos=\"%.3f,%.3f!\"];\n",
			g.Label(v), shape, pos[v].X*scale, pos[v].Y*scale)
	}
	for _, e := range keptEdges(g, opts.EdgeFraction) {
		fmt.Fprintf(w, "\t%q -- %q [weight=%.3f];\n", g.Label(e.U), g.Label(e.V), e.Weight)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteSVG renders the embedding directly as a standalone SVG: edges in
// grey (top fraction only), nodes coloured by ground-truth cluster.
func WriteSVG(w io.Writer, g *graph.Graph, pos []Point, opts RenderOptions) error {
	if len(pos) != g.N() {
		return fmt.Errorf("layout: %d positions for %d vertices", len(pos), g.N())
	}
	const size = 800.0
	const margin = 40.0
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	span := math.Max(maxX-minX, maxY-minY)
	if span == 0 {
		span = 1
	}
	tx := func(p Point) (float64, float64) {
		return margin + (p.X-minX)/span*(size-2*margin),
			margin + (p.Y-minY)/span*(size-2*margin)
	}
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f">`+"\n", size, size)
	for _, e := range keptEdges(g, opts.EdgeFraction) {
		x1, y1 := tx(pos[e.U])
		x2, y2 := tx(pos[e.V])
		fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#cccccc" stroke-width="0.6"/>`+"\n", x1, y1, x2, y2)
	}
	for v := 0; v < g.N(); v++ {
		x, y := tx(pos[v])
		color := svgColors[0]
		if opts.Truth != nil {
			color = svgColors[opts.Truth[v]%len(svgColors)]
		}
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="6" fill="%s"><title>%s</title></circle>`+"\n", x, y, color, html.EscapeString(g.Label(v)))
	}
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

func keptEdges(g *graph.Graph, fraction float64) []graph.Edge {
	edges := g.Edges()
	// Drop self-loops from renderings.
	kept := edges[:0]
	for _, e := range edges {
		if e.U != e.V {
			kept = append(kept, e)
		}
	}
	edges = kept
	if !(fraction > 0 && fraction < 1) {
		return edges
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	n := int(float64(len(edges))*fraction + 0.5)
	if n > len(edges) {
		n = len(edges)
	}
	return edges[:n]
}
