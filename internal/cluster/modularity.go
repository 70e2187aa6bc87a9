package cluster

import "repro/internal/graph"

// Modularity computes the weighted Newman–Girvan modularity Q (Eq. 3 of
// the paper, weighted generalisation) of a partition:
//
//	Q = Σ_c [ in_c/2m − (tot_c/2m)² ]
//
// where in_c is the total intra-cluster adjacency weight of cluster c
// (each edge counted from both endpoints, a self-loop contributing twice
// its weight), tot_c the summed vertex strengths of c, and 2m the total
// strength of the graph. Q is 0 for the all-in-one partition minus the
// degree-squared term, and high for partitions whose clusters concentrate
// edge weight internally.
func Modularity(g *graph.Graph, p Partition) float64 {
	k := p.NumClusters()
	return modularity(g, p, make([]float64, k), make([]float64, k))
}

// modularity is Modularity summing into in and tot, one zeroed entry per
// cluster each.
func modularity(g *graph.Graph, p Partition, in, tot []float64) float64 {
	if p.N() != g.N() {
		panic("cluster: partition size does not match graph")
	}
	m2 := 2 * g.TotalWeight()
	if m2 == 0 {
		return 0
	}
	for v := 0; v < g.N(); v++ {
		tot[p.Labels[v]] += g.Strength(v)
	}
	for u := 0; u < g.N(); u++ {
		c := p.Labels[u]
		for _, e := range g.UpperNeighbors(u) { // each edge once, in Edges() order
			if p.Labels[e.V] == c {
				// Both orientations (or the doubled self-loop).
				in[c] += 2 * e.Weight
			}
		}
	}
	q := 0.0
	for c := range in {
		q += in[c]/m2 - float64((tot[c]/m2)*(tot[c]/m2))
	}
	return q
}
