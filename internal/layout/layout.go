// Package layout implements the Kamada–Kawai force-directed layout the
// paper uses (via Graphviz' neato) to visualise measurement graphs in
// Figs. 8–12, plus DOT and SVG writers.
//
// Following §III-C, the desired length of an edge is inversely
// proportional to its measured weight, so nodes joined by high-bandwidth
// (heavy) edges are drawn close together; graph-theoretic distances
// extend the metric to non-adjacent pairs.
package layout

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Point is a 2-D position.
type Point struct{ X, Y float64 }

// The Kamada–Kawai optimisation settings. Every figure uses the same
// ones, so a layout is a function of the graph alone.
const (
	// maxSweeps bounds the outer Newton iterations per node.
	maxSweeps = 200
	// tolerance stops the optimisation when the largest node gradient
	// falls below it.
	tolerance = 1e-3
	// layoutSeed drives the initial circular arrangement's jitter.
	layoutSeed = 1
)

// KamadaKawai computes a deterministic 2-D embedding of the weighted
// graph. Edge target lengths are 1/weight (normalised); unconnected pairs
// sit at their shortest-path distance; disconnected components are pushed
// apart by a large synthetic distance. Starting from a jittered circle,
// it relaxes the node with the largest energy gradient by Newton steps,
// for at most 200 sweeps per node or until every gradient is below 1e-3.
func KamadaKawai(g *graph.Graph) []Point {
	n := g.N()
	pos := make([]Point, n)
	if n == 0 {
		return pos
	}
	if n == 1 {
		return pos
	}
	d := targetDistances(g)

	// Kamada-Kawai spring constants: k_ij = K / d_ij².
	const springK = 1.0

	// Initial placement: circle with deterministic jitter.
	rng := rand.New(rand.NewSource(layoutSeed))
	r := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d[i][j] > r {
				r = d[i][j]
			}
		}
	}
	r /= 2
	for i := range pos {
		angle := 2*math.Pi*float64(i)/float64(n) + 0.01*rng.Float64()
		pos[i] = Point{X: r * math.Cos(angle), Y: r * math.Sin(angle)}
	}

	// Classic KK: repeatedly pick the node with the largest gradient and
	// relax it with 2-D Newton steps.
	grad := func(m int) (gx, gy, delta float64) {
		for i := 0; i < n; i++ {
			if i == m {
				continue
			}
			dx := pos[m].X - pos[i].X
			dy := pos[m].Y - pos[i].Y
			dist := math.Hypot(dx, dy)
			if dist < 1e-9 {
				dist = 1e-9
			}
			k := springK / (d[m][i] * d[m][i])
			gx += k * (dx - d[m][i]*dx/dist)
			gy += k * (dy - d[m][i]*dy/dist)
		}
		return gx, gy, math.Hypot(gx, gy)
	}

	for sweep := 0; sweep < maxSweeps*n; sweep++ {
		// Find the worst node.
		worst, worstDelta := -1, tolerance
		for m := 0; m < n; m++ {
			if _, _, dl := grad(m); dl > worstDelta {
				worst, worstDelta = m, dl
			}
		}
		if worst < 0 {
			break
		}
		// Newton-relax the worst node.
		m := worst
		for inner := 0; inner < 40; inner++ {
			gx, gy, dl := grad(m)
			if dl < tolerance {
				break
			}
			var exx, exy, eyy float64
			for i := 0; i < n; i++ {
				if i == m {
					continue
				}
				dx := pos[m].X - pos[i].X
				dy := pos[m].Y - pos[i].Y
				dist := math.Hypot(dx, dy)
				if dist < 1e-9 {
					dist = 1e-9
				}
				cube := dist * dist * dist
				k := springK / (d[m][i] * d[m][i])
				exx += k * (1 - d[m][i]*dy*dy/cube)
				exy += k * (d[m][i] * dx * dy / cube)
				eyy += k * (1 - d[m][i]*dx*dx/cube)
			}
			det := exx*eyy - exy*exy
			if math.Abs(det) < 1e-12 {
				break
			}
			pos[m].X += (exy*gy - eyy*gx) / det
			pos[m].Y += (exy*gx - exx*gy) / det
		}
	}
	return pos
}

// targetDistances returns all-pairs shortest-path distances with edge
// length 1/weight, normalised so the smallest target length is 1.
func targetDistances(g *graph.Graph) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	maxW := 0.0
	for _, e := range g.Edges() {
		if e.U != e.V && e.Weight > maxW {
			maxW = e.Weight
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		// Length inversely proportional to weight, min length 1.
		l := maxW / e.Weight
		if l < d[e.U][e.V] {
			d[e.U][e.V] = l
			d[e.V][e.U] = l
		}
	}
	// Floyd-Warshall.
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if v := dik + dk[j]; v < di[j] {
					di[j] = v
				}
			}
		}
	}
	// Disconnected pairs: push apart.
	finiteMax := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !math.IsInf(d[i][j], 1) && d[i][j] > finiteMax {
				finiteMax = d[i][j]
			}
		}
	}
	if finiteMax == 0 {
		finiteMax = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && math.IsInf(d[i][j], 1) {
				d[i][j] = 2 * finiteMax
			}
		}
	}
	return d
}

// Stress returns the Kamada-Kawai energy of an embedding: the weighted sum
// of squared deviations between realised and target distances. Lower is
// better; it is the quantity KamadaKawai minimises, exposed for tests and
// quality reporting.
func Stress(g *graph.Graph, pos []Point) float64 {
	d := targetDistances(g)
	n := g.N()
	s := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := math.Hypot(pos[i].X-pos[j].X, pos[i].Y-pos[j].Y)
			k := 1.0 / (d[i][j] * d[i][j])
			s += k * (dist - d[i][j]) * (dist - d[i][j])
		}
	}
	return s
}
