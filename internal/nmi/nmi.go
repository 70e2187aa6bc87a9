// Package nmi implements the cluster-comparison measures used by the
// paper's evaluation (§III-E): the overlap-capable Normalized Mutual
// Information of Lancichinetti, Fortunato and Kertész (LFK), which is the
// "NMI method of [30]" the paper reports in Fig. 13, and the Adjusted Rand
// Index. NMI ranges over [0,1]; 1 means perfect agreement with the ground
// truth.
package nmi

import (
	"fmt"
	"math"
)

func h(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return -p * math.Log2(p)
}

// Cover is a set of communities, each a list of node ids in [0,n). A
// partition is the special case of disjoint communities covering all
// nodes; communities may overlap, as the LFK measure allows.
type Cover [][]int

// CoverFromLabels converts a partition label slice into a Cover.
func CoverFromLabels(labels []int) Cover {
	m := map[int][]int{}
	maxLabel := 0
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	for v, l := range labels {
		m[l] = append(m[l], v)
	}
	var out Cover
	for l := 0; l <= maxLabel; l++ {
		if nodes, ok := m[l]; ok {
			out = append(out, nodes)
		}
	}
	return out
}

// LFK computes the overlapping NMI between two covers over n nodes.
//
// For each community X_i seen as a binary node variable, it finds the
// best-matching Y_j by minimum conditional entropy H(X_i|Y_j), subject to
// the LFK admissibility constraint h(P11)+h(P00) >= h(P01)+h(P10) (which
// prevents a community from "matching" its complement); inadmissible
// pairs fall back to H(X_i). The normalized conditional entropies are
// averaged in both directions:
//
//	NMI = 1 - ( H(X|Y)_norm + H(Y|X)_norm ) / 2
func LFK(x, y Cover, n int) float64 {
	if n <= 0 {
		panic("nmi: need a positive node count")
	}
	if len(x) == 0 || len(y) == 0 {
		panic("nmi: covers must be non-empty")
	}
	xs := memberships(x, n)
	ys := memberships(y, n)
	return 1 - float64((condNorm(xs, ys, n)+condNorm(ys, xs, n))/2)
}

// LFKPartition is LFK on two partition label slices.
func LFKPartition(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("nmi: label slices differ in length: %d vs %d", len(a), len(b)))
	}
	return LFK(CoverFromLabels(a), CoverFromLabels(b), len(a))
}

// count returns the number of true entries.
func count(b []bool) int {
	c := 0
	for _, v := range b {
		if v {
			c++
		}
	}
	return c
}

// memberships converts communities to bitmaps.
func memberships(c Cover, n int) [][]bool {
	out := make([][]bool, len(c))
	for i, nodes := range c {
		out[i] = make([]bool, n)
		for _, v := range nodes {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("nmi: node %d out of range [0,%d)", v, n))
			}
			out[i][v] = true
		}
	}
	return out
}

// condNorm returns H(X|Y)_norm averaged over X's communities.
func condNorm(xs, ys [][]bool, n int) float64 {
	total := 0.0
	for _, xi := range xs {
		cx := count(xi)
		p1 := float64(cx) / float64(n)
		hx := h(p1) + h(1-p1)
		best := math.Inf(1)
		for _, yj := range ys {
			if v, ok := condEntropy(xi, yj, n); ok && v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			best = hx
		}
		if hx == 0 {
			// Degenerate community (empty or universal): it carries no
			// information. It costs nothing if Y contains its twin,
			// everything otherwise.
			if best == 0 {
				continue
			}
			total += 1
			continue
		}
		total += best / hx
	}
	return total / float64(len(xs))
}

// condEntropy returns H(x|y) and whether the pair is admissible.
func condEntropy(x, y []bool, n int) (float64, bool) {
	var n11, n10, n01, n00 int
	for v := 0; v < n; v++ {
		switch {
		case x[v] && y[v]:
			n11++
		case x[v] && !y[v]:
			n10++
		case !x[v] && y[v]:
			n01++
		default:
			n00++
		}
	}
	fn := float64(n)
	p11, p10, p01, p00 := float64(n11)/fn, float64(n10)/fn, float64(n01)/fn, float64(n00)/fn
	if h(p11)+h(p00) < h(p10)+h(p01) {
		return 0, false
	}
	hxy := h(p11) + h(p10) + h(p01) + h(p00)
	py1 := float64(n11+n01) / fn
	hy := h(py1) + h(1-py1)
	return hxy - hy, true
}
