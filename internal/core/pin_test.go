package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// planted256 is the graph internal/cluster pins Louvain on: 8 clusters of
// 32 paired into 4 sites, intra-cluster weights in [40,80), intra-site in
// [12,22), cross-site in [2,8) with about a third of the cross-site pairs
// unmeasured.
func planted256() *graph.Graph {
	rng := rand.New(rand.NewSource(256))
	g := graph.New(256)
	for u := 0; u < 256; u++ {
		for v := u + 1; v < 256; v++ {
			switch {
			case u/32 == v/32:
				g.AddWeight(u, v, 40+40*rng.Float64())
			case u/64 == v/64:
				g.AddWeight(u, v, 12+10*rng.Float64())
			case rng.Float64() < 0.7:
				g.AddWeight(u, v, 2+6*rng.Float64())
			}
		}
	}
	return g
}

// pinnedBoundary is a Boundary with its floats as IEEE-754 bits.
type pinnedBoundary struct {
	a, b, edges, possible int
	mean, suppression     uint64
}

func checkBoundaries(t *testing.T, name string, got []Boundary, want []pinnedBoundary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d boundaries, want %d", name, len(got), len(want))
	}
	for i, b := range got {
		g := pinnedBoundary{b.ClusterA, b.ClusterB, b.Edges, b.Possible,
			math.Float64bits(b.MeanEdgeWeight), math.Float64bits(b.Suppression)}
		if g != want[i] {
			t.Errorf("%s[%d] = {%d %d %d %d %#x %#x}, want {%d %d %d %d %#x %#x}", name, i,
				g.a, g.b, g.edges, g.possible, g.mean, g.suppression,
				want[i].a, want[i].b, want[i].edges, want[i].possible, want[i].mean, want[i].suppression)
		}
	}
}

// TestHierarchyAndBottlenecksPlanted256Pinned holds Hierarchy (induced
// subgraphs re-clustered in isolation) and Bottlenecks to the bits they
// produced when the graph was a map of maps (recorded at commit f7a1e26).
// The root is Louvain on g, whose sums planted256 builds in Edges() order;
// induced re-inserts each site's and cluster's edges through AddWeight in
// Edges() order, and Bottlenecks sums in Edges() order; changing any of
// these orders moves these floats.
func TestHierarchyAndBottlenecksPlanted256Pinned(t *testing.T) {
	g := planted256()

	opts := DefaultHierarchyOptions()
	opts.Seed = 7
	h := Hierarchy(g, opts)
	if d := h.Depth(); d != 3 {
		t.Errorf("hierarchy depth = %d, want 3", d)
	}
	if got := math.Float64bits(h.Q); got != 0x3fe100ce9737172d {
		t.Errorf("root Q bits = %#x, want 0x3fe100ce9737172d", got)
	}
	siteQ := []uint64{0x3fd17055b699e9ca, 0x3fd186d8219b5854, 0x3fd19d541f820a93, 0x3fd1625663b74df6}
	if len(h.Children) != len(siteQ) {
		t.Fatalf("root has %d children, want %d", len(h.Children), len(siteQ))
	}
	for i, c := range h.Children {
		if got := math.Float64bits(c.Q); got != siteQ[i] || len(c.Children) != 2 {
			t.Errorf("site %d: Q bits %#x with %d children, want %#x with 2", i, got, len(c.Children), siteQ[i])
		}
	}
	for v, l := range h.Flatten(256).Labels {
		if l != v/32 {
			t.Fatalf("leaf label[%d] = %d, want %d (the 8 clusters)", v, l, v/32)
		}
	}

	lou := cluster.Louvain(g, rand.New(rand.NewSource(7)))
	checkBoundaries(t, "sites", Bottlenecks(g, lou.Partition), []pinnedBoundary{
		{2, 3, 2872, 4096, 0x400bf6c2c529039a, 0x4025df620d0be93c},
		{1, 2, 2848, 4096, 0x400c055b769179f5, 0x4025d3fd42dbe664},
		{0, 1, 2866, 4096, 0x400c093a70e1e303, 0x4025d0f9b6ac226c},
		{0, 3, 2893, 4096, 0x400c0a6606e7c464, 0x4025d010a0c8e1bc},
		{0, 2, 2872, 4096, 0x400c2576c12ef994, 0x4025bb1706f57367},
		{1, 3, 2890, 4096, 0x400c46fa3cd3b550, 0x4025a155c54a018e},
	})
	checkBoundaries(t, "clusters", Bottlenecks(g, lou.Levels[0]), []pinnedBoundary{
		{1, 4, 683, 1024, 0x400aaf2af15973c7, 0x403202f7b67bdabb},
		{2, 7, 699, 1024, 0x400ae3313c250e64, 0x4031e01df306f702},
		{1, 7, 695, 1024, 0x400b478388445527, 0x40319e61001825d2},
		{0, 3, 702, 1024, 0x400b6811b7e17043, 0x403189734063f12a},
		{4, 6, 711, 1024, 0x400b7c6a7c8e2e8b, 0x40317c77e5998922},
		{3, 4, 710, 1024, 0x400b8ecd2616d9fb, 0x403170cd63699792},
		{3, 5, 697, 1024, 0x400b9e155d5a5b9a, 0x40316726cca0cc9d},
		{2, 6, 716, 1024, 0x400bb54c2a6a8acf, 0x4031589240219189},
		{5, 7, 711, 1024, 0x400bc4c034b38ac4, 0x40314eeb0f53ee47},
		{1, 3, 708, 1024, 0x400bd2deda44d9d9, 0x403146227fe23909},
		{0, 7, 727, 1024, 0x400bef3532a6c23c, 0x4031349c964a54b3},
		{2, 5, 701, 1024, 0x400c1ad8c04c6ed0, 0x403119e579e95648},
		{5, 6, 729, 1024, 0x400c312a57e91e6f, 0x40310c5ba3c8a00f},
		{0, 6, 738, 1024, 0x400c3e66270609c2, 0x4031045eb76c192b},
		{1, 2, 726, 1024, 0x400c487afddef7e8, 0x4030fe4de80e0640},
		{4, 7, 721, 1024, 0x400c68b60b793694, 0x4030eb06639ad6f7},
		{0, 5, 722, 1024, 0x400c886790064e10, 0x4030d83b9d2966af},
		{0, 4, 731, 1024, 0x400c9007cfa215a6, 0x4030d3bc4908c58c},
		{0, 2, 730, 1024, 0x400ca17e338249d5, 0x4030c978eb6bddad},
		{1, 6, 733, 1024, 0x400cb47939adf03e, 0x4030be5f4e5cba49},
		{2, 4, 740, 1024, 0x400ccdb29688433b, 0x4030afb59ac032bf},
		{1, 5, 736, 1024, 0x400cce40b3ba0eda, 0x4030af634816823a},
		{3, 6, 732, 1024, 0x400cfcede450597c, 0x403094857cca8213},
		{3, 7, 743, 1024, 0x400d867da86ee2b7, 0x40304745d63dab8e},
		{4, 5, 1024, 1024, 0x403101d4ff2088dd, 0x400c429d240c8c85},
		{2, 3, 1024, 1024, 0x40310a6f8cff0b39, 0x400c345873345218},
		{0, 1, 1024, 1024, 0x40311252eaf22432, 0x400c275031325225},
		{6, 7, 1024, 1024, 0x40311ed7488d1e34, 0x400c12bacf2f438e},
	})
}
