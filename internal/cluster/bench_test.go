package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

var sinkLouvain LouvainResult

// BenchmarkLouvainPlanted1k clusters the shape of the repo benchmark's
// analyze-1k workload: the complete graph on 1024 vertices in 16 planted
// clusters.
func BenchmarkLouvainPlanted1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New(1024)
	for u := 0; u < 1024; u++ {
		for v := u + 1; v < 1024; v++ {
			if u/64 == v/64 {
				g.AddWeight(u, v, 40+40*rng.Float64())
			} else {
				g.AddWeight(u, v, 2+6*rng.Float64())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLouvain = Louvain(g, rand.New(rand.NewSource(1)))
	}
	if k := sinkLouvain.Partition.NumClusters(); k != 16 {
		b.Fatalf("found %d clusters, want the 16 planted", k)
	}
}
