package cluster

import (
	"math/rand"

	"repro/internal/graph"
)

// LouvainResult is the output of the Louvain optimiser.
type LouvainResult struct {
	// Partition is the flat partition at the dendrogram cut with the
	// highest modularity — the cut the paper uses (§III-D).
	Partition Partition
	// Q is its modularity.
	Q float64
	// Levels is the dendrogram: Levels[0] is the partition after the
	// first aggregation phase (finest), the last element equals
	// Partition (coarsest). All are expressed over the original
	// vertices.
	Levels []Partition
}

// Louvain runs the multilevel modularity optimisation of Blondel et al.
// on a weighted graph: repeated local-moving passes followed by graph
// aggregation, until modularity stops improving. Vertex visit order is
// randomised from rng (pass a fixed seed for reproducible runs; nil uses
// a fixed default).
func Louvain(g *graph.Graph, rng *rand.Rand) LouvainResult {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := g.N()
	if n == 0 {
		return LouvainResult{Partition: NewPartition(nil)}
	}

	// flat[v] maps original vertex v to its community in the current
	// (coarsened) working graph.
	flat := make([]int, n)
	for i := range flat {
		flat[i] = i
	}
	work := g
	var levels []Partition

	for {
		lv := newLevel(work)
		improved := lv.localMoving(rng)
		part := lv.partition()
		if !improved && len(levels) > 0 {
			break
		}
		// Project the level's communities onto original vertices.
		for v := range flat {
			flat[v] = part.Labels[flat[v]]
		}
		levels = append(levels, NewPartition(append([]int(nil), flat...)))
		if part.NumClusters() == work.N() {
			break // no merge happened: converged
		}
		work = aggregate(work, part)
	}

	best := levels[len(levels)-1]
	bestQ := Modularity(g, best)
	for _, p := range levels {
		if q := Modularity(g, p); q > bestQ+1e-12 {
			best, bestQ = p, q
		}
	}
	return LouvainResult{Partition: best, Q: bestQ, Levels: levels}
}

// level is the local-moving state over one working graph.
type level struct {
	g      *graph.Graph
	m2     float64
	comm   []int
	k      []float64 // vertex strengths
	sumTot []float64 // community strength totals
}

func newLevel(g *graph.Graph) *level {
	n := g.N()
	lv := &level{
		g:      g,
		m2:     2 * g.TotalWeight(),
		comm:   make([]int, n),
		k:      make([]float64, n),
		sumTot: make([]float64, n),
	}
	for v := 0; v < n; v++ {
		lv.comm[v] = v
		lv.k[v] = g.Strength(v)
		lv.sumTot[v] = lv.k[v]
	}
	return lv
}

// localMoving greedily moves vertices to the neighbouring community with
// the highest modularity gain until a full pass makes no move. It reports
// whether any move happened.
func (lv *level) localMoving(rng *rand.Rand) bool {
	if lv.m2 == 0 {
		return false
	}
	n := lv.g.N()
	order := rng.Perm(n)
	// links[c] accumulates the weight from v to community c; touched
	// tracks which entries are live so resets are O(degree).
	links := make([]float64, n)
	seen := make([]bool, n)
	var touched []int
	movedEver := false
	for {
		moved := false
		for _, v := range order {
			cur := lv.comm[v]
			// Weight from v to each neighbouring community; self-loops
			// are community-independent and cancel in the comparison.
			touched = touched[:0]
			for _, e := range lv.g.SortedNeighbors(v) {
				if e.V == v {
					continue
				}
				c := lv.comm[e.V]
				if !seen[c] {
					seen[c] = true
					links[c] = 0
					touched = append(touched, c)
				}
				links[c] += e.Weight
			}
			// Remove v from its community.
			lv.sumTot[cur] -= lv.k[v]
			// Gain of joining community c: links[c] - k_v*sumTot[c]/m2,
			// relative to staying isolated. Staying put is the baseline.
			var curLink float64
			if seen[cur] {
				curLink = links[cur]
			}
			bestC := cur
			bestGain := curLink - lv.k[v]*lv.sumTot[cur]/lv.m2
			for _, c := range touched {
				if c == cur {
					continue
				}
				gain := links[c] - lv.k[v]*lv.sumTot[c]/lv.m2
				if gain > bestGain+1e-12 {
					bestC, bestGain = c, gain
				}
			}
			lv.sumTot[bestC] += lv.k[v]
			lv.comm[v] = bestC
			for _, c := range touched {
				seen[c] = false
			}
			if bestC != cur {
				moved = true
				movedEver = true
			}
		}
		if !moved {
			break
		}
	}
	return movedEver
}

func (lv *level) partition() Partition {
	return NewPartition(append([]int(nil), lv.comm...))
}

// aggregate condenses each community of part into a single vertex; intra-
// community weight becomes a self-loop.
func aggregate(g *graph.Graph, part Partition) *graph.Graph {
	out := graph.New(part.NumClusters())
	for u := 0; u < g.N(); u++ {
		for _, e := range g.SortedNeighbors(u) {
			if e.V >= u { // each edge once, in Edges() order
				out.AddWeight(part.Labels[u], part.Labels[e.V], e.Weight)
			}
		}
	}
	return out
}
