package core

// Bottleneck reporting. The paper's significant result (§V) is that the
// clustering "correctly identified communication bottleneck links ... by
// placing the nodes communicating across the bottleneck link in different
// logical clusters". This file turns a clustering back into an explicit
// bottleneck report: which cluster pairs are separated, how starved their
// boundary is relative to intra-cluster traffic, and which measured edges
// cross it.

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// Boundary describes the measured traffic across one cluster pair.
type Boundary struct {
	// ClusterA, ClusterB are cluster ids of the partition.
	ClusterA, ClusterB int
	// Edges is the number of measured (non-zero) edges crossing the
	// boundary; Possible is the number of host pairs across it.
	Edges, Possible int
	// MeanEdgeWeight is the average w(e) over all possible crossing
	// pairs (absent edges count as zero).
	MeanEdgeWeight float64
	// Suppression is the ratio between the partition's mean
	// intra-cluster edge weight and this boundary's mean edge weight —
	// how much the bottleneck starves cross traffic (higher = more
	// severe). Infinite suppression is reported as 0 edges and
	// MeanEdgeWeight 0.
	Suppression float64
}

func (b Boundary) String() string {
	return fmt.Sprintf("clusters %d|%d: mean w %.1f across %d/%d pairs (%.1fx suppressed)",
		b.ClusterA, b.ClusterB, b.MeanEdgeWeight, b.Edges, b.Possible, b.Suppression)
}

// Bottlenecks summarises every cluster boundary of a partition over a
// measurement graph, sorted by decreasing suppression (most severe
// first). With a single cluster the report is empty: no bottlenecks were
// discovered, as in the paper's 2x2 experiment.
func Bottlenecks(g *graph.Graph, p cluster.Partition) []Boundary {
	if p.N() != g.N() {
		panic("core: partition size does not match graph")
	}
	k := p.NumClusters()
	if k < 2 {
		return nil
	}
	sizes := p.Sizes()

	// Mean intra-cluster edge weight over all intra pairs.
	var intraSum float64
	var intraPairs int
	for c := 0; c < k; c++ {
		intraPairs += sizes[c] * (sizes[c] - 1) / 2
	}
	// Indexed ca*k+cb with ca < cb.
	crossSum := make([]float64, k*k)
	crossEdges := make([]int, k*k)
	for u := 0; u < g.N(); u++ {
		for _, e := range g.SortedNeighbors(u) {
			if e.V <= u {
				continue // each edge once, in Edges() order; self-loops skipped
			}
			ca, cb := p.Labels[u], p.Labels[e.V]
			if ca == cb {
				intraSum += e.Weight
				continue
			}
			if ca > cb {
				ca, cb = cb, ca
			}
			crossSum[ca*k+cb] += e.Weight
			crossEdges[ca*k+cb]++
		}
	}
	meanIntra := 0.0
	if intraPairs > 0 {
		meanIntra = intraSum / float64(intraPairs)
	}

	var out []Boundary
	for ca := 0; ca < k; ca++ {
		for cb := ca + 1; cb < k; cb++ {
			key := ca*k + cb
			possible := sizes[ca] * sizes[cb]
			b := Boundary{
				ClusterA: ca,
				ClusterB: cb,
				Edges:    crossEdges[key],
				Possible: possible,
			}
			if possible > 0 {
				b.MeanEdgeWeight = crossSum[key] / float64(possible)
			}
			if b.MeanEdgeWeight > 0 && meanIntra > 0 {
				b.Suppression = meanIntra / b.MeanEdgeWeight
			}
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suppression != out[j].Suppression {
			return out[i].Suppression > out[j].Suppression
		}
		if out[i].ClusterA != out[j].ClusterA {
			return out[i].ClusterA < out[j].ClusterA
		}
		return out[i].ClusterB < out[j].ClusterB
	})
	return out
}
