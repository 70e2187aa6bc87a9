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
// Edges() order — what Scale and the measurement merge do.
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
