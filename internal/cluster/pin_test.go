package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// planted256 builds the pinned planted-partition graph: 8 clusters of 32
// paired into 4 sites, intra-cluster weights in [40,80), intra-site in
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

// TestLouvainPlanted256Pinned holds Louvain, Modularity and MapEquation to
// the bits they produced when the graph was a map of maps (recorded at
// commit f7a1e26). Every archive is content-addressed over these floats,
// so a change in any accumulation order — Strength, aggregate, the
// Modularity sums — must fail here rather than silently re-key a campaign.
func TestLouvainPlanted256Pinned(t *testing.T) {
	g := planted256()
	res := Louvain(g, rand.New(rand.NewSource(7)))
	for v, l := range res.Partition.Labels {
		if l != v/64 {
			t.Fatalf("label[%d] = %d, want %d (the 4 sites)", v, l, v/64)
		}
	}
	if got := math.Float64bits(res.Q); got != 0x3fe100ce9737172d {
		t.Errorf("Q bits = %#x, want 0x3fe100ce9737172d", got)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("dendrogram has %d levels, want 2", len(res.Levels))
	}
	for v, l := range res.Levels[0].Labels {
		if l != v/32 {
			t.Fatalf("level 0 label[%d] = %d, want %d (the 8 clusters)", v, l, v/32)
		}
	}
	if got := math.Float64bits(Modularity(g, res.Levels[0])); got != 0x3fdeabb6bf0fd602 {
		t.Errorf("level 0 Q bits = %#x, want 0x3fdeabb6bf0fd602", got)
	}
	if got := math.Float64bits(MapEquation(g, res.Partition)); got != 0x401d0e6b5a2a5110 {
		t.Errorf("MapEquation bits = %#x, want 0x401d0e6b5a2a5110", got)
	}
}
