package cluster

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// aggregateOracle is aggregate as it was before its rows were sized up
// front: a fresh graph grown by AddWeight alone, in Edges() order.
func aggregateOracle(g *graph.Graph, part Partition) *graph.Graph {
	out := graph.New(part.NumClusters())
	for u := 0; u < g.N(); u++ {
		for _, e := range g.SortedNeighbors(u) {
			if e.V >= u {
				out.AddWeight(part.Labels[u], part.Labels[e.V], e.Weight)
			}
		}
	}
	return out
}

// randomWeighted draws a graph on n vertices with about density·n²/2
// edges of random weight, self-loops included, inserted in random order.
func randomWeighted(rng *rand.Rand, n int, density float64) *graph.Graph {
	g := graph.New(n)
	for _, u := range rng.Perm(n) {
		for _, v := range rng.Perm(n) {
			if v >= u && rng.Float64() < density {
				g.AddWeight(u, v, 0.1+10*rng.Float64())
			}
		}
	}
	return g
}

// TestAggregateMatchesAddWeightOracle: the sized aggregate builds, bit for
// bit, the graph the AddWeight loop grew — every weight, every Strength
// and TotalWeight — on random weighted graphs with self-loops and random
// partitions, the all-in-one and the singletons included.
func TestAggregateMatchesAddWeightOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		g := randomWeighted(rng, n, rng.Float64())
		labels := make([]int, n)
		k := 1 + rng.Intn(n)
		switch trial % 10 {
		case 0:
			k = 1
		case 1:
			k = n
		}
		for v := range labels {
			labels[v] = rng.Intn(k)
		}
		if trial%10 == 1 {
			labels = rng.Perm(n)
		}
		part := NewPartition(labels)
		got, want := aggregate(g, part), aggregateOracle(g, part)
		if got.N() != want.N() || got.EdgeCount() != want.EdgeCount() {
			t.Fatalf("trial %d: %d vertices and %d edges, the oracle's %d and %d", trial, got.N(), got.EdgeCount(), want.N(), want.EdgeCount())
		}
		ge, we := got.Edges(), want.Edges()
		for i := range ge {
			if ge[i].U != we[i].U || ge[i].V != we[i].V || math.Float64bits(ge[i].Weight) != math.Float64bits(we[i].Weight) {
				t.Fatalf("trial %d: edge %d is %+v, the oracle's %+v", trial, i, ge[i], we[i])
			}
		}
		for v := 0; v < got.N(); v++ {
			if math.Float64bits(got.Strength(v)) != math.Float64bits(want.Strength(v)) {
				t.Fatalf("trial %d: Strength(%d) = %v, the oracle's %v", trial, v, got.Strength(v), want.Strength(v))
			}
			if len(got.SortedNeighbors(v)) != len(want.SortedNeighbors(v)) {
				t.Fatalf("trial %d: row %d has %d entries, the oracle's %d", trial, v, len(got.SortedNeighbors(v)), len(want.SortedNeighbors(v)))
			}
		}
		if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
			t.Fatalf("trial %d: TotalWeight = %v, the oracle's %v", trial, got.TotalWeight(), want.TotalWeight())
		}
	}
}

// cliqueRing builds k cliques of size vertices and weight w, each joined
// to the next around a ring by one unit edge.
func cliqueRing(k, size int, w float64) *graph.Graph {
	g := graph.New(k * size)
	for c := 0; c < k; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.AddWeight(c*size+i, c*size+j, w)
			}
		}
		g.AddWeight(c*size, ((c+1)%k)*size+1, 1)
	}
	return g
}

// TestLouvainAllocBudget: a Louvain call allocates a fixed number of times
// per level, whatever the size of the graph — its workspace once, then per
// level the visit order, the coarsened graph and the level's partition.
// Measured: at most 6 + 7 per level (12 or 13 allocations at one level,
// 19 at two, 26 at three), and the budget is that plus a quarter. Before
// the workspace a call allocated per row, per level and per community:
// 39 at 12 vertices and one level, 239 at 64 and three, 843 at 2,048
// and one.
func TestLouvainAllocBudget(t *testing.T) {
	skipUnderRace(t)
	twoC, _ := twoCliques(6, 1, 0.2)
	levels := map[int]bool{}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"two 6-cliques", twoC},
		{"ring of 32 4-cliques", cliqueRing(32, 4, 5)},
		{"ring of 128 4-cliques", cliqueRing(128, 4, 5)},
		{"ring of 256 8-cliques", cliqueRing(256, 8, 5)},
		{"64-ring", ring(64)},
		{"planted 256", planted256()},
	} {
		var res LouvainResult
		allocs := testing.AllocsPerRun(3, func() { res = Louvain(tc.g, rand.New(rand.NewSource(1))) })
		l := len(res.Levels)
		levels[l] = true
		if budget := 1.25 * float64(6+7*l); allocs > budget {
			t.Errorf("%s (%d vertices, %d levels): %v allocations per call, budget %v", tc.name, tc.g.N(), l, allocs, budget)
		}
	}
	if len(levels) < 3 {
		t.Fatalf("the graphs reach only %d distinct level counts, want 3", len(levels))
	}
}

// skipUnderRace skips a test that counts allocations: the race detector's
// instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
}
