package nmi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitmapLFK is LFK as it was computed from one n-long membership bitmap
// per community and a count over all n nodes for every pair of
// communities, O(n·|X|·|Y|). It is the oracle the intersection table must
// match bit for bit.
func bitmapLFK(x, y Cover, n int) float64 {
	xs := bitmapMemberships(x, n)
	ys := bitmapMemberships(y, n)
	return 1 - float64((bitmapCondNorm(xs, ys, n)+bitmapCondNorm(ys, xs, n))/2)
}

func bitmapMemberships(c Cover, n int) [][]bool {
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

func bitmapCondNorm(xs, ys [][]bool, n int) float64 {
	total := 0.0
	for _, xi := range xs {
		cx := 0
		for _, in := range xi {
			if in {
				cx++
			}
		}
		p1 := float64(cx) / float64(n)
		hx := h(p1) + h(1-p1)
		best := math.Inf(1)
		for _, yj := range ys {
			if v, ok := bitmapCondEntropy(xi, yj, n); ok && v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			best = hx
		}
		if hx == 0 {
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

func bitmapCondEntropy(x, y []bool, n int) (float64, bool) {
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

// randomCover draws k communities over n nodes. Each community takes a
// random subset, then repeats some of its members; with empty set, one
// community is empty, and with universal, one holds every node.
func randomCover(rng *rand.Rand, n, k int, empty, universal bool) Cover {
	c := make(Cover, k)
	for i := range c {
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				c[i] = append(c[i], v)
			}
		}
		for j := rng.Intn(3); j > 0 && len(c[i]) > 0; j-- {
			c[i] = append(c[i], c[i][rng.Intn(len(c[i]))])
		}
		rng.Shuffle(len(c[i]), func(a, b int) { c[i][a], c[i][b] = c[i][b], c[i][a] })
	}
	if empty {
		c[rng.Intn(k)] = []int{}
	}
	if universal {
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		c[rng.Intn(k)] = all
	}
	return c
}

// TestLFKMatchesBitmapOracle: the intersection table scores every pair of
// covers with the bits the bitmap counts gave — random partitions, and
// overlapping covers with repeated members, empty communities and
// communities holding every node.
func TestLFKMatchesBitmapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(x, y Cover, n int) {
		t.Helper()
		got, want := LFK(x, y, n), bitmapLFK(x, y, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LFK(%v, %v, %d) = %v (%#x), the bitmap oracle's %v (%#x)",
				x, y, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		a, b := make([]int, n), make([]int, n)
		ka, kb := 1+rng.Intn(n), 1+rng.Intn(8)
		for v := range a {
			a[v], b[v] = rng.Intn(ka), rng.Intn(kb)
		}
		x, y := CoverFromLabels(a), CoverFromLabels(b)
		check(x, y, n)
		if got, want := LFKPartition(a, b), bitmapLFK(x, y, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LFKPartition(%v, %v) = %v, the bitmap oracle's %v", a, b, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		x := randomCover(rng, n, 1+rng.Intn(6), trial%3 == 0, trial%4 == 0)
		y := randomCover(rng, n, 1+rng.Intn(6), trial%5 == 0, trial%2 == 0)
		check(x, y, n)
		check(x, x, n)
	}
	check(Cover{{}}, Cover{{}}, 3)
	check(Cover{{0, 1, 2}}, Cover{{}}, 3)
	check(Cover{{0, 0, 0}}, Cover{{0}, {1, 2, 2}}, 3)
}

// TestLFKOutOfRangeNodePanics: a node outside [0,n) in either cover
// panics with the bitmap path's message.
func TestLFKOutOfRangeNodePanics(t *testing.T) {
	for _, tc := range []struct {
		x, y Cover
		want string
	}{
		{Cover{{0, 7}}, Cover{{0}}, "nmi: node 7 out of range [0,4)"},
		{Cover{{0}}, Cover{{1}, {-1}}, "nmi: node -1 out of range [0,4)"},
		{Cover{{4}}, Cover{{5}}, "nmi: node 4 out of range [0,4)"},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("LFK(%v, %v, 4) panicked with %v, want %q", tc.x, tc.y, r, tc.want)
				}
			}()
			LFK(tc.x, tc.y, 4)
		}()
	}
}

// TestLabelsAreOpaque: a partition scores the same, bit for bit, whatever
// ints name its communities — negative, sparse or dense — and
// CoverFromLabels lists the communities by ascending label. Scoring used
// to drop every node with a negative label, so the first two pairs, each
// the same grouping twice, read 0.75 and 0.667 instead of 1.
func TestLabelsAreOpaque(t *testing.T) {
	for _, tc := range []struct {
		a, b []int // the labels scored
		c, d []int // the same groupings, labelled densely
	}{
		{[]int{-1, -1, 0, 0}, []int{0, 0, 1, 1}, []int{0, 0, 1, 1}, []int{0, 0, 1, 1}},
		{[]int{-1, -2, 0, 0}, []int{0, 1, 2, 2}, []int{1, 0, 2, 2}, []int{0, 1, 2, 2}},
		{[]int{-5, -5, 1 << 40, 1 << 40, 3, 3}, []int{0, 0, 1, 1, 2, 2}, []int{0, 0, 2, 2, 1, 1}, []int{0, 0, 1, 1, 2, 2}},
		{[]int{-3, -3, -3, -3}, []int{7, 7, 7, 7}, []int{0, 0, 0, 0}, []int{0, 0, 0, 0}},
		{[]int{-9, -9, 100, 100}, []int{-9, 4, 4, 4}, []int{0, 0, 1, 1}, []int{0, 1, 1, 1}},
	} {
		got, want := LFKPartition(tc.a, tc.b), LFKPartition(tc.c, tc.d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("LFKPartition(%v, %v) = %v, want %v as for %v and %v", tc.a, tc.b, got, want, tc.c, tc.d)
		}
	}
	for _, a := range [][]int{{-1, -1, 0, 0}, {-1, -2, 0, 0}} {
		if got := LFKPartition(a, a); got != 1 {
			t.Errorf("LFKPartition(%v, itself) = %v, want 1", a, got)
		}
	}
	got := CoverFromLabels([]int{3, -2, 3, 1 << 40, -2, 0})
	want := Cover{{1, 4}, {5}, {0, 2}, {3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("CoverFromLabels = %v, want %v", got, want)
	}
}
