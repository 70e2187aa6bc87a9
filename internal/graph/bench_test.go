package graph

import (
	"math/rand"
	"testing"
)

// dense1k is the shape of the repo benchmark's analyze-1k workload: the
// complete graph on 1024 vertices in 16 planted clusters, 523 776 edges.
func dense1k() *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New(1024)
	for u := 0; u < 1024; u++ {
		for v := u + 1; v < 1024; v++ {
			if u/64 == v/64 {
				g.AddWeight(u, v, 40+40*rng.Float64())
			} else {
				g.AddWeight(u, v, 2+6*rng.Float64())
			}
		}
	}
	return g
}

var (
	sinkGraph  *Graph
	sinkEdges  []Edge
	sinkWeight float64
)

// BenchmarkAddWeightDense1k builds the dense graph edge by edge in
// Edges() order — what ScaleInto and the measurement merge do.
func BenchmarkAddWeightDense1k(b *testing.B) {
	edges := dense1k().Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(1024)
		for _, e := range edges {
			g.AddWeight(e.U, e.V, e.Weight)
		}
		sinkGraph = g
	}
}

func BenchmarkEdges1k(b *testing.B) {
	g := dense1k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEdges = g.Edges()
	}
}

// BenchmarkSortedNeighbors1k visits every vertex's neighbours once, the
// inner loop of a Louvain local-moving pass.
func BenchmarkSortedNeighbors1k(b *testing.B) {
	g := dense1k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for v := 0; v < g.N(); v++ {
			for _, e := range g.SortedNeighbors(v) {
				sum += e.Weight
			}
		}
		sinkWeight = sum
	}
}

// BenchmarkScaleInto is the measurement merge's Eq. 2 step on a
// tomo-fattree256-sized counts graph (256 vertices, 35 neighbours each):
// a fresh copy against a warm ScaleInto that rebuilds the last mean
// graph in place.
func BenchmarkScaleInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(256)
	for u := 0; u < 256; u++ {
		// A circulant graph: 17 neighbours either side and the antipode.
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 128} {
			if v := (u + d) % 256; d < 128 || u < v {
				g.AddWeight(u, v, float64(1+rng.Intn(300)))
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkGraph = g.ScaleInto(nil, 0.125)
		}
	})
	b.Run("warm", func(b *testing.B) {
		dst := g.ScaleInto(g.ScaleInto(nil, 0.125), 0.125)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkGraph = g.ScaleInto(dst, 0.125)
		}
	})
}
