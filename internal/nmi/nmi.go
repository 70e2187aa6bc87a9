// Package nmi implements the cluster-comparison measures used by the
// paper's evaluation (§III-E): the overlap-capable Normalized Mutual
// Information of Lancichinetti, Fortunato and Kertész (LFK), which is the
// "NMI method of [30]" the paper reports in Fig. 13, and the Adjusted Rand
// Index. NMI ranges over [0,1]; 1 means perfect agreement with the ground
// truth.
package nmi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// CoverFromLabels converts a partition label slice into a Cover: one
// community per distinct label, in ascending label order, each listing its
// nodes in ascending order. Labels are opaque ints, so negative and sparse
// labels name communities like any other. The communities share one slab.
func CoverFromLabels(labels []int) Cover {
	if len(labels) == 0 {
		return nil
	}
	nodes := make([]int, len(labels))
	for v := range nodes {
		nodes[v] = v
	}
	slices.SortFunc(nodes, func(u, v int) int {
		return cmp.Or(cmp.Compare(labels[u], labels[v]), cmp.Compare(u, v))
	})
	k := 0
	for i, v := range nodes {
		if i == 0 || labels[v] != labels[nodes[i-1]] {
			k++
		}
	}
	out := make(Cover, 0, k)
	lo := 0
	for i := 1; i <= len(nodes); i++ {
		if i == len(nodes) || labels[nodes[i]] != labels[nodes[lo]] {
			out = append(out, nodes[lo:i:i])
			lo = i
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
//
// Every entropy needs only the sizes of X_i, Y_j and X_i ∩ Y_j, so LFK
// counts the intersections of all pairs at once, from each node's
// memberships: O(n + |X|·|Y|) for two partitions.
func LFK(x, y Cover, n int) float64 {
	if n <= 0 {
		panic("nmi: need a positive node count")
	}
	if len(x) == 0 || len(y) == 0 {
		panic("nmi: covers must be non-empty")
	}
	t := intersect(x, y, n)
	ky := len(y)
	return 1 - float64((condNorm(t.xsize, t.ysize, t.cells, ky, 1, n)+condNorm(t.ysize, t.xsize, t.cells, 1, ky, n))/2)
}

// LFKPartition is LFK on two partition label slices.
func LFKPartition(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("nmi: label slices differ in length: %d vs %d", len(a), len(b)))
	}
	return LFK(CoverFromLabels(a), CoverFromLabels(b), len(a))
}

// table holds what LFK needs of two covers: the number of distinct nodes
// of each community, and cells[i*len(y)+j] = |X_i ∩ Y_j|.
type table struct {
	xsize, ysize, cells []int
}

// intersect counts the intersection table of x and y over n nodes. It
// lists each node's communities in x, then walks y's communities and
// credits every x community of each member. A node listed twice in one
// community counts once, and a node outside [0,n) panics.
func intersect(x, y Cover, n int) table {
	kx, ky := len(x), len(y)
	members := 0
	for _, c := range x {
		members += len(c)
	}
	// One slab: the sizes, the table, each node's x communities
	// (list[off[v]:off[v+1]]) and a per-node stamp of the community
	// being walked.
	slab := make([]int, kx+ky+kx*ky+(n+1)+members+n)
	take := func(k int) []int {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	t := table{xsize: take(kx), ysize: take(ky), cells: take(kx * ky)}
	off, list, stamp := take(n+1), take(members), take(n)
	for i, c := range x {
		for _, v := range c {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("nmi: node %d out of range [0,%d)", v, n))
			}
			if stamp[v] != i+1 {
				stamp[v] = i + 1
				off[v+1]++
				t.xsize[i]++
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	clear(stamp)
	for i, c := range x {
		for _, v := range c {
			if stamp[v] != i+1 {
				stamp[v] = i + 1
				list[off[v]] = i
				off[v]++
			}
		}
	}
	// off[v] is now where v's list ends, and off[v-1] where it starts.
	clear(stamp)
	for j, c := range y {
		for _, v := range c {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("nmi: node %d out of range [0,%d)", v, n))
			}
			if stamp[v] == j+1 {
				continue
			}
			stamp[v] = j + 1
			t.ysize[j]++
			lo := 0
			if v > 0 {
				lo = off[v-1]
			}
			for _, i := range list[lo:off[v]] {
				t.cells[i*ky+j]++
			}
		}
	}
	return t
}

// condNorm returns H(X|Y)_norm averaged over X's communities, given the
// community sizes of X and Y and |X_i ∩ Y_j| at cells[i*xStride+j*yStride].
func condNorm(xsize, ysize, cells []int, xStride, yStride, n int) float64 {
	total := 0.0
	for i, cx := range xsize {
		p1 := float64(cx) / float64(n)
		hx := h(p1) + h(1-p1)
		best := math.Inf(1)
		for j, cy := range ysize {
			n11 := cells[i*xStride+j*yStride]
			n10, n01 := cx-n11, cy-n11
			if v, ok := condEntropy(n11, n10, n01, n-n11-n10-n01, n); ok && v < best {
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
	return total / float64(len(xsize))
}

// condEntropy returns H(x|y) and whether the pair is admissible, from the
// node counts in both (n11), in x only (n10), in y only (n01) and in
// neither (n00) of n nodes.
func condEntropy(n11, n10, n01, n00, n int) (float64, bool) {
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
