package cluster

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// This file implements a two-level map-equation optimiser in the style of
// Infomap (Rosvall & Bergström), which the paper evaluated as an
// alternative to modularity clustering and found inferior for this
// problem (§III-D). It serves as the ablation baseline.
//
// For an undirected weighted graph, a random walker's stationary
// distribution is p_v = k_v / 2m. With a partition M, the per-step module
// exit probability is q_c = w_cut(c)/2m (w_cut: weight of edges leaving
// c), and the description length is
//
//	L(M) = plogp(q) − 2 Σ_c plogp(q_c) + Σ_c plogp(q_c + p_c) − Σ_v plogp(p_v)
//
// with q = Σ_c q_c, p_c = Σ_{v∈c} p_v and plogp(x) = x·log2(x).

func plogp(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log2(x)
}

// MapEquation returns the description length L(M) in bits of the given
// partition.
func MapEquation(g *graph.Graph, p Partition) float64 {
	if p.N() != g.N() {
		panic("cluster: partition size does not match graph")
	}
	m2 := 2 * g.TotalWeight()
	if m2 == 0 {
		return 0
	}
	k := p.NumClusters()
	pc := make([]float64, k) // module visit probability
	qc := make([]float64, k) // module exit probability
	var nodeTerm, q float64  // Σ plogp(p_v), Σ q_c
	for v := 0; v < g.N(); v++ {
		pv := g.Strength(v) / m2
		pc[p.Labels[v]] += pv
		nodeTerm += plogp(pv)
	}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.SortedNeighbors(u) {
			// Each edge once, in Edges() order.
			if e.V > u && p.Labels[u] != p.Labels[e.V] {
				qc[p.Labels[u]] += e.Weight / m2
				qc[p.Labels[e.V]] += e.Weight / m2
			}
		}
	}
	for c := 0; c < k; c++ {
		q += qc[c]
	}
	l := plogp(q) - nodeTerm
	for c := 0; c < k; c++ {
		l += float64(-2*plogp(qc[c])) + plogp(qc[c]+pc[c])
	}
	return l
}

// InfomapResult is the output of the map-equation optimiser.
type InfomapResult struct {
	Partition Partition
	// Bits is the description length of the partition.
	Bits float64
}

// Infomap greedily minimises the map equation with Louvain-style local
// moving and aggregation. It is a faithful two-level variant of the
// algorithm the paper compares against.
func Infomap(g *graph.Graph, rng *rand.Rand) InfomapResult {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := g.N()
	if n == 0 {
		return InfomapResult{Partition: NewPartition(nil)}
	}
	flat := make([]int, n)
	for i := range flat {
		flat[i] = i
	}
	work := g
	best := NewPartition(append([]int(nil), flat...))
	bestBits := MapEquation(g, best)
	for round := 0; round < 32; round++ {
		part, moved := infomapPass(work, rng)
		if !moved && round > 0 {
			break
		}
		for v := range flat {
			flat[v] = part.Labels[flat[v]]
		}
		cand := NewPartition(append([]int(nil), flat...))
		if bits := MapEquation(g, cand); bits < bestBits-1e-12 {
			best, bestBits = cand, bits
		}
		if part.NumClusters() == work.N() {
			break
		}
		work = aggregate(work, part)
	}
	return InfomapResult{Partition: best, Bits: bestBits}
}

// infomapPass runs local moving over one working graph: each vertex moves
// to the neighbouring module that most decreases the (exact, recomputed)
// map equation. Exact recomputation is O(n) per candidate, acceptable at
// tomography scales (tens to low hundreds of vertices) and keeps the
// implementation transparently correct.
func infomapPass(g *graph.Graph, rng *rand.Rand) (Partition, bool) {
	n := g.N()
	comm := make([]int, n)
	for i := range comm {
		comm[i] = i
	}
	current := MapEquation(g, NewPartition(append([]int(nil), comm...)))
	movedEver := false
	for pass := 0; pass < 16; pass++ {
		moved := false
		for _, v := range rng.Perm(n) {
			cur := comm[v]
			// Candidate modules: those of v's neighbours, in
			// deterministic order.
			seen := map[int]bool{}
			var cand []int
			for _, e := range g.SortedNeighbors(v) {
				if e.V != v && !seen[comm[e.V]] {
					seen[comm[e.V]] = true
					cand = append(cand, comm[e.V])
				}
			}
			bestC, bestBits := cur, current
			for _, c := range cand {
				if c == cur {
					continue
				}
				comm[v] = c
				bits := MapEquation(g, NewPartition(append([]int(nil), comm...)))
				if bits < bestBits-1e-12 {
					bestC, bestBits = c, bits
				}
				comm[v] = cur
			}
			if bestC != cur {
				comm[v] = bestC
				current = bestBits
				moved = true
				movedEver = true
			}
		}
		if !moved {
			break
		}
	}
	return NewPartition(comm), movedEver
}
