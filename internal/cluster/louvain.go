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
//
// Every level works in one workspace sized at the input's vertex count,
// so what a call allocates per level is the visit order, the coarsened
// graph and the level's partition, whatever the graph's size.
func Louvain(g *graph.Graph, rng *rand.Rand) LouvainResult {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := g.N()
	if n == 0 {
		return LouvainResult{Partition: NewPartition(nil)}
	}
	ws := newWorkspace(n)

	// Each level's partition is its labels projected onto the original
	// vertices. A level's labels are dense in order of first appearance
	// over the working vertices, which are numbered in order of first
	// appearance over the original ones, so the projection is dense in
	// that order too: it is a Partition as it stands.
	work := g
	var levels []Partition

	for {
		ws.reset(work)
		improved := ws.localMoving(rng)
		labels, k := ws.renumber()
		if !improved && len(levels) > 0 {
			break
		}
		flat := make([]int, n)
		if len(levels) == 0 {
			copy(flat, labels)
		} else {
			for v, c := range levels[len(levels)-1].Labels {
				flat[v] = labels[c]
			}
		}
		levels = append(levels, Partition{Labels: flat, k: k})
		if k == work.N() {
			break // no merge happened: converged
		}
		work = ws.aggregate(work, labels, k)
	}

	best := levels[len(levels)-1]
	bestQ := ws.modularity(g, best)
	for _, p := range levels {
		if q := ws.modularity(g, p); q > bestQ+1e-12 {
			best, bestQ = p, q
		}
	}
	return LouvainResult{Partition: best, Q: bestQ, Levels: levels}
}

// workspace is one Louvain call's storage, sized at the input graph's
// vertex count and resliced by every level: a coarsened graph never has
// more vertices, or communities, than the input. Each step reuses what
// the steps before it no longer read.
type workspace struct {
	// The level being optimised: its graph, twice its total weight, each
	// vertex's community, strength and the strength totals of the
	// communities. aggregate groups the vertices by community in comm,
	// and modularity sums into k and sumTot.
	g      *graph.Graph
	m2     float64
	comm   []int
	k      []float64
	sumTot []float64
	// Local moving: links[c] accumulates the weight from the vertex
	// being moved to community c, seen marks the live entries and
	// touched lists them, so resets are O(degree). renumber maps
	// communities to labels, and aggregate stamps them, in touched.
	links   []float64
	seen    []bool
	touched []int
	// labels are the level's dense labels, and start is aggregate's
	// offsets into its grouping, then the coarse graph's row lengths.
	labels []int
	start  []int
}

// newWorkspace carves the workspace for an n-vertex input from one slab
// of ints, one of floats and one of flags.
func newWorkspace(n int) *workspace {
	ints := make([]int, 4*n+1)
	floats := make([]float64, 3*n)
	return &workspace{
		comm: ints[:n:n], touched: ints[n : n : 2*n], labels: ints[2*n : 3*n : 3*n], start: ints[3*n:],
		k: floats[:n:n], sumTot: floats[n : 2*n : 2*n], links: floats[2*n:],
		seen: make([]bool, n),
	}
}

// reset starts a level on g: every vertex alone in its own community.
func (ws *workspace) reset(g *graph.Graph) {
	n := g.N()
	ws.g, ws.m2 = g, 2*g.TotalWeight()
	ws.comm, ws.k, ws.sumTot = ws.comm[:n], ws.k[:n], ws.sumTot[:n]
	for v := 0; v < n; v++ {
		ws.comm[v] = v
		ws.k[v] = g.Strength(v)
		ws.sumTot[v] = ws.k[v]
	}
}

// localMoving greedily moves vertices to the neighbouring community with
// the highest modularity gain until a full pass makes no move. It reports
// whether any move happened.
func (ws *workspace) localMoving(rng *rand.Rand) bool {
	if ws.m2 == 0 {
		return false
	}
	order := rng.Perm(ws.g.N())
	links, seen, touched := ws.links, ws.seen, ws.touched
	movedEver := false
	for {
		moved := false
		for _, v := range order {
			cur := ws.comm[v]
			// Weight from v to each neighbouring community; self-loops
			// are community-independent and cancel in the comparison.
			touched = touched[:0]
			for _, e := range ws.g.SortedNeighbors(v) {
				if e.V == v {
					continue
				}
				c := ws.comm[e.V]
				if !seen[c] {
					seen[c] = true
					links[c] = 0
					touched = append(touched, c)
				}
				links[c] += e.Weight
			}
			// Remove v from its community.
			ws.sumTot[cur] -= ws.k[v]
			// Gain of joining community c: links[c] - k_v*sumTot[c]/m2,
			// relative to staying isolated. Staying put is the baseline.
			var curLink float64
			if seen[cur] {
				curLink = links[cur]
			}
			bestC := cur
			bestGain := curLink - ws.k[v]*ws.sumTot[cur]/ws.m2
			for _, c := range touched {
				if c == cur {
					continue
				}
				gain := links[c] - ws.k[v]*ws.sumTot[c]/ws.m2
				if gain > bestGain+1e-12 {
					bestC, bestGain = c, gain
				}
			}
			ws.sumTot[bestC] += ws.k[v]
			ws.comm[v] = bestC
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

// renumber returns the level's communities as dense labels in order of
// first appearance — what NewPartition makes of comm — and their count.
// The labels are the workspace's, valid until the next level.
func (ws *workspace) renumber() ([]int, int) {
	n := len(ws.comm)
	labels, remap := ws.labels[:n], ws.touched[:n]
	for i := range remap {
		remap[i] = -1
	}
	k := 0
	for v, c := range ws.comm {
		if remap[c] < 0 {
			remap[c] = k
			k++
		}
		labels[v] = remap[c]
	}
	return labels, k
}

// aggregate condenses each of the k communities of labels (dense ids)
// into a single vertex; intra-community weight becomes a self-loop. The
// rows are sized first — each community's distinct neighbour
// communities, counted over its vertices with a stamp per community —
// so the coarse graph is laid out in one Reserve, and the AddWeight loop
// then runs in Edges() order, the order its sums depend on.
func (ws *workspace) aggregate(g *graph.Graph, labels []int, k int) *graph.Graph {
	n := g.N()
	start := ws.start[:k+1]
	clear(start)
	for _, c := range labels[:n] {
		start[c+1]++
	}
	for c := 0; c < k; c++ {
		start[c+1] += start[c]
	}
	order := ws.comm[:n]
	for v, c := range labels[:n] {
		order[start[c]] = v
		start[c]++
	}
	// start[c] is now where community c's vertices end; once they are
	// counted, it becomes the length of c's row.
	stamp := ws.touched[:k]
	clear(stamp)
	lo := 0
	for c := 0; c < k; c++ {
		hi, room := start[c], 0
		for _, u := range order[lo:hi] {
			for _, e := range g.SortedNeighbors(u) {
				if d := labels[e.V]; stamp[d] != c+1 {
					stamp[d] = c + 1
					room++
				}
			}
			if room == k {
				break // c neighbours every community: a dense graph's usual case
			}
		}
		start[c], lo = room, hi
	}
	out := graph.New(k)
	out.Reserve(start[:k])
	for u := 0; u < n; u++ {
		for _, e := range g.SortedNeighbors(u) {
			if e.V >= u { // each edge once, in Edges() order
				out.AddWeight(labels[u], labels[e.V], e.Weight)
			}
		}
	}
	return out
}

// aggregate is the workspace's aggregate for one partition, for callers
// outside a Louvain call.
func aggregate(g *graph.Graph, part Partition) *graph.Graph {
	return newWorkspace(g.N()).aggregate(g, part.Labels, part.NumClusters())
}

// modularity is Modularity summing into the workspace's strength
// arrays, which only the level being optimised reads.
func (ws *workspace) modularity(g *graph.Graph, p Partition) float64 {
	k := p.NumClusters()
	in, tot := ws.k[:k], ws.sumTot[:k]
	clear(in)
	clear(tot)
	return modularity(g, p, in, tot)
}
