package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAddWeightAccumulates(t *testing.T) {
	g := New(3)
	g.AddWeight(0, 1, 2)
	g.AddWeight(1, 0, 3) // order-insensitive
	if w := g.Weight(0, 1); w != 5 {
		t.Fatalf("Weight(0,1) = %g, want 5", w)
	}
	if w := g.Weight(1, 0); w != 5 {
		t.Fatalf("Weight(1,0) = %g, want 5", w)
	}
	if g.TotalWeight() != 5 {
		t.Fatalf("TotalWeight = %g, want 5", g.TotalWeight())
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(2)
	g.AddWeight(1, 1, 4)
	if w := g.Weight(1, 1); w != 4 {
		t.Fatalf("self-loop weight = %g, want 4", w)
	}
	if s := g.Strength(1); s != 8 {
		t.Fatalf("Strength with self-loop = %g, want 8 (counted twice)", s)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestStrengthAndDegree(t *testing.T) {
	g := New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(0, 2, 2.5)
	g.AddWeight(0, 3, 0.5)
	if d := len(g.SortedNeighbors(0)); d != 3 {
		t.Fatalf("degree of 0 = %d, want 3", d)
	}
	if s := g.Strength(0); s != 4 {
		t.Fatalf("Strength(0) = %g, want 4", s)
	}
	if s := g.Strength(2); s != 2.5 {
		t.Fatalf("Strength(2) = %g, want 2.5", s)
	}
}

func TestZeroingEdgeRemovesIt(t *testing.T) {
	g := New(2)
	g.AddWeight(0, 1, 3)
	g.AddWeight(0, 1, -3)
	if g.Weight(0, 1) != 0 {
		t.Fatal("edge should be removed when weight reaches zero")
	}
	if g.EdgeCount() != 0 {
		t.Fatalf("EdgeCount = %d, want 0", g.EdgeCount())
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative accumulated weight")
		}
	}()
	g := New(2)
	g.AddWeight(0, 1, 1)
	g.AddWeight(0, 1, -2)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range vertex")
		}
	}()
	New(2).AddWeight(0, 2, 1)
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddWeight(3, 1, 1)
	g.AddWeight(2, 0, 1)
	g.AddWeight(1, 0, 1)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("len(Edges) = %d, want 3", len(es))
	}
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	for i, e := range es {
		if e.U != want[i][0] || e.V != want[i][1] {
			t.Fatalf("Edges()[%d] = (%d,%d), want %v", i, e.U, e.V, want[i])
		}
		if e.U > e.V {
			t.Fatalf("edge (%d,%d) not normalised U<=V", e.U, e.V)
		}
	}
}

func TestSortedNeighbors(t *testing.T) {
	g := New(5)
	g.AddWeight(2, 4, 1)
	g.AddWeight(2, 0, 2)
	g.AddWeight(2, 3, 3)
	ns := g.SortedNeighbors(2)
	if len(ns) != 3 || ns[0].V != 0 || ns[1].V != 3 || ns[2].V != 4 {
		t.Fatalf("SortedNeighbors(2) = %v", ns)
	}
}

func TestTopFraction(t *testing.T) {
	g := New(5)
	g.AddWeight(0, 1, 10)
	g.AddWeight(1, 2, 8)
	g.AddWeight(2, 3, 2)
	g.AddWeight(3, 4, 1)
	top := g.TopFraction(0.5)
	if top.EdgeCount() != 2 {
		t.Fatalf("TopFraction(0.5) kept %d edges, want 2", top.EdgeCount())
	}
	if top.Weight(0, 1) == 0 || top.Weight(1, 2) == 0 {
		t.Fatal("TopFraction kept the wrong edges")
	}
	if top.N() != g.N() {
		t.Fatal("TopFraction must preserve vertex count")
	}
}

func TestScale(t *testing.T) {
	g := New(3)
	g.AddWeight(0, 1, 6)
	g.AddWeight(1, 2, 3)
	s := g.ScaleInto(nil, 1.0/3.0)
	if w := s.Weight(0, 1); math.Abs(w-2) > 1e-12 {
		t.Fatalf("scaled weight = %g, want 2", w)
	}
	if w := s.Weight(1, 2); math.Abs(w-1) > 1e-12 {
		t.Fatalf("scaled weight = %g, want 1", w)
	}
}

// Property: total weight equals the sum over Edges(), and Strength sums to
// 2*TotalWeight (handshake lemma, self-loops counted twice).
func TestHandshakeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint8) bool {
		n := int(nRaw%20) + 2
		m := int(mRaw % 64)
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		for i := 0; i < m; i++ {
			g.AddWeight(rng.Intn(n), rng.Intn(n), rng.Float64()*10)
		}
		var sumEdges, sumStrength float64
		for _, e := range g.Edges() {
			sumEdges += e.Weight
		}
		for v := 0; v < n; v++ {
			sumStrength += g.Strength(v)
		}
		return math.Abs(sumEdges-g.TotalWeight()) < 1e-9 &&
			math.Abs(sumStrength-2*g.TotalWeight()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Default labels are formatted on demand; the first SetLabel stores them
// all, and an explicit empty label is a label like any other.
func TestDefaultLabels(t *testing.T) {
	g := New(3)
	if got := g.Label(2); got != "v2" {
		t.Fatalf("Label(2) = %q, want v2", got)
	}
	g.SetLabel(1, "")
	for v, want := range []string{"v0", "", "v2"} {
		if got := g.Label(v); got != want {
			t.Errorf("Label(%d) = %q, want %q", v, got, want)
		}
		if got := g.ScaleInto(nil, 1).Label(v); got != want {
			t.Errorf("copy's Label(%d) = %q, want %q", v, got, want)
		}
	}
	if got := New(2).ScaleInto(nil, 1).Label(1); got != "v1" {
		t.Errorf("unlabelled copy's Label(1) = %q, want v1", got)
	}
}

// A pair whose weights sum below zero panics naming the pair as AddWeight
// names it, lower endpoint first, whichever way round the list holds it.
func TestFromEdgesNegativeSumNamesBothEndpoints(t *testing.T) {
	var list EdgeList
	list.Add(0, 1, 1)
	list.Add(4, 2, 2)
	list.Add(2, 4, -5)
	defer func() {
		want := "graph: edge (2,4) weight would become negative (-3)"
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	FromEdges(make([]string, 5), &list)
}

// scaleCase builds a graph with labels, self-loops and varied degrees.
func scaleCase(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddWeight(rng.Intn(n), rng.Intn(n), 1+float64(rng.Intn(97)))
	}
	return g
}

// requireEqualBits fails unless got holds what want holds: edges, every
// strength, the total and the edge count bit for bit, and the labels.
func requireEqualBits(t *testing.T, ctx string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: %d vertices, want %d", ctx, got.N(), want.N())
	}
	if g, w := got.Edges(), want.Edges(); !sameEdges(g, w) {
		t.Fatalf("%s: Edges() = %v, want %v", ctx, g, w)
	}
	if got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("%s: EdgeCount() = %d, want %d", ctx, got.EdgeCount(), want.EdgeCount())
	}
	if g, w := math.Float64bits(got.TotalWeight()), math.Float64bits(want.TotalWeight()); g != w {
		t.Fatalf("%s: TotalWeight bits %#x, want %#x", ctx, g, w)
	}
	for v := 0; v < got.N(); v++ {
		if g, w := math.Float64bits(got.Strength(v)), math.Float64bits(want.Strength(v)); g != w {
			t.Fatalf("%s: Strength(%d) bits %#x, want %#x", ctx, v, g, w)
		}
		if got.Label(v) != want.Label(v) {
			t.Fatalf("%s: Label(%d) = %q, want %q", ctx, v, got.Label(v), want.Label(v))
		}
	}
}

// ScaleInto builds the same graph whatever dst held: a dirty graph of the same size
// with more, fewer or other edges and labels, a graph of another size, or
// the warm result of rescaling the same source as it grows and shrinks.
func TestScaleIntoMatchesScale(t *testing.T) {
	const n, k = 24, 1.0 / 3
	g := scaleCase(1, n, 150)
	g.SetLabel(3, "host-3")
	dirty := map[string]*Graph{
		"more edges":   scaleCase(2, n, 400),
		"fewer edges":  scaleCase(3, n, 10),
		"other edges":  scaleCase(4, n, 150),
		"edgeless":     New(n),
		"other size":   scaleCase(5, n+1, 150),
		"smaller size": scaleCase(6, n-1, 150),
	}
	dirty["more edges"].SetLabel(0, "stale")
	for name, dst := range dirty {
		got := g.ScaleInto(dst, k)
		requireEqualBits(t, name, got, g.ScaleInto(nil, k))
		if (got == dst) != (dst.N() == n) {
			t.Errorf("%s: rebuilt in place %v, want %v", name, got == dst, dst.N() == n)
		}
	}
	// An unlabelled source leaves no stale label behind.
	requireEqualBits(t, "unlabelled source", scaleCase(7, n, 50).ScaleInto(dirty["more edges"], k), scaleCase(7, n, 50).ScaleInto(nil, k))

	// Warm: the mean graph of a sliding window, rebuilt after every step.
	rng := rand.New(rand.NewSource(8))
	src, warm := New(n), (*Graph)(nil)
	var added [][3]int
	for step := 0; step < 60; step++ {
		for i := 0; i < 20; i++ {
			e := [3]int{rng.Intn(n), rng.Intn(n), 1 + rng.Intn(9)}
			src.AddWeight(e[0], e[1], float64(e[2]))
			added = append(added, e)
		}
		if len(added) > 60 { // retire the oldest: degrees shrink
			for _, e := range added[:20] {
				src.AddWeight(e[0], e[1], -float64(e[2]))
			}
			added = added[20:]
		}
		warm = src.ScaleInto(warm, k)
		requireEqualBits(t, fmt.Sprintf("warm step %d", step), warm, src.ScaleInto(nil, k))
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScaleInto onto its own source did not panic")
			}
		}()
		g.ScaleInto(g, k)
	}()

	dst := g.ScaleInto(nil, k)
	if allocs := testing.AllocsPerRun(10, func() { g.ScaleInto(dst, k) }); allocs > 1 {
		t.Errorf("warm ScaleInto made %v allocations, want at most 1", allocs)
	}
}

// An adjacency entry is 16 bytes, so reserving a 1024-vertex complete
// graph costs its 1024·1023 entries and little else.
func TestAdjacencyBudget(t *testing.T) {
	if size := unsafe.Sizeof(Neighbor{}); size != 16 {
		t.Fatalf("Neighbor is %d bytes, want 16", size)
	}
	if raceEnabled() {
		t.Skip("allocation sizes are meaningless under the race detector")
	}
	const n = 1024
	degrees := make([]int, n)
	for v := range degrees {
		degrees[v] = n - 1
	}
	g := New(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Reserve(degrees)
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(n*(n-1)*16+1<<20); got > budget {
		t.Errorf("Reserve for the complete graph on %d vertices allocated %d bytes, budget %d", n, got, budget)
	}
}

func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
