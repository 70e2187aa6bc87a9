// Package graph provides the weighted undirected graph representation
// shared by the tomography pipeline, the clustering algorithms and the
// layout engine.
//
// Vertices are dense integer identifiers 0..N-1 with optional string
// labels (vertex v reads "v<v>" until a label is set). Edge weights are
// float64 and accumulate: adding weight to an existing edge sums the
// weights, which is exactly the aggregation the paper's metric w(e)
// (Eq. 2) requires across BitTorrent iterations.
//
// Representation: one slice of 16-byte Neighbor entries per vertex — the
// other endpoint and the weight, the row being the vertex itself — kept
// sorted by neighbour id (an undirected edge is stored at both endpoints,
// a self-loop once). Every traversal the package offers — SortedNeighbors,
// Edges — therefore runs in ascending vertex order
// with no sorting and no hashing, and that order is part of the contract:
// the clustering and reporting layers accumulate floating-point sums along
// it, and their results are content-addressed bit for bit. AddWeight is an
// append when the neighbour lies past the vertex's last one — the order
// every builder in the tree inserts in — and a binary search plus a shift
// of the tail (O(degree)) otherwise; FromEdges builds the same graph from
// a whole edge list at once, in any order, without the shifts.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Edge is an undirected weighted edge, as Edges reports it: U <= V.
type Edge struct {
	U, V   int
	Weight float64
}

// Neighbor is one entry of a vertex's adjacency, as SortedNeighbors
// reports it: the other endpoint and the edge weight.
type Neighbor struct {
	V      int
	Weight float64
}

// Graph is a weighted undirected graph. Self-loops are permitted (they
// matter for modularity on coarsened graphs) and are stored once, in their
// vertex's own row.
type Graph struct {
	n        int
	labels   []string     // nil until the first SetLabel
	adj      [][]Neighbor // adj[u]: u's neighbours and weights, ascending by neighbour
	edges    int          // distinct edges, self-loops included
	strength []float64    // incremental weighted degrees
	total    float64      // sum of edge weights (self-loops counted once)
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Neighbor, n), strength: make([]float64, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// SetLabel assigns a display label to vertex v.
func (g *Graph) SetLabel(v int, label string) {
	g.check(v)
	if g.labels == nil {
		g.labels = make([]string, g.n)
		for i := range g.labels {
			g.labels[i] = defaultLabel(i)
		}
	}
	g.labels[v] = label
}

// Label returns the display label of vertex v: "v<v>" while no label of
// the graph has been set.
func (g *Graph) Label(v int) string {
	g.check(v)
	if g.labels == nil {
		return defaultLabel(v)
	}
	return g.labels[v]
}

func defaultLabel(v int) string { return "v" + strconv.Itoa(v) }

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// find returns the position of neighbour v in adj[u] and whether it is
// there; when absent, the position is where it would be inserted. A
// neighbour past the tail — the order every bulk builder inserts in —
// is answered without searching.
func (g *Graph) find(u, v int) (int, bool) {
	a := g.adj[u]
	lo, hi := 0, len(a)
	if hi == 0 || a[hi-1].V < v {
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].V < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, a[lo].V == v
}

// put stores weight w for neighbour v of u at position i, as find(u, v)
// reported it: an update when present, an ordered insert when not, a
// removal when w is zero.
func (g *Graph) put(u, v, i int, present bool, w float64) {
	a := g.adj[u]
	switch {
	case present && w == 0:
		g.adj[u] = append(a[:i], a[i+1:]...)
	case present:
		a[i].Weight = w
	case w != 0:
		a = append(a, Neighbor{})
		copy(a[i+1:], a[i:])
		a[i] = Neighbor{V: v, Weight: w}
		g.adj[u] = a
	}
}

// AddWeight adds w to the weight of edge (u,v), creating it if absent.
// Negative accumulated weights are rejected because the downstream
// algorithms (modularity, layout) assume non-negative weights.
func (g *Graph) AddWeight(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u > v {
		u, v = v, u
	}
	i, present := g.find(u, v)
	var old float64
	if present {
		old = g.adj[u][i].Weight
	}
	nw := old + w
	if nw < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) weight would become negative (%g)", u, v, nw))
	}
	g.total += w
	if u == v {
		// Self-loops contribute twice to the weighted degree, the
		// standard convention for weighted modularity.
		g.strength[u] += 2 * w
	} else {
		g.strength[u] += w
		g.strength[v] += w
	}
	switch {
	case !present && nw != 0:
		g.edges++
	case present && nw == 0:
		g.edges--
	}
	g.put(u, v, i, present, nw)
	if u != v {
		j, _ := g.find(v, u)
		g.put(v, u, j, present, nw)
	}
}

// Weight returns the weight of edge (u,v), or zero if absent.
func (g *Graph) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	if i, ok := g.find(u, v); ok {
		return g.adj[u][i].Weight
	}
	return 0
}

// TotalWeight returns the sum of all edge weights, counting each
// undirected edge (and each self-loop) once.
func (g *Graph) TotalWeight() float64 { return g.total }

// Strength returns the weighted degree of v: the sum of weights of
// incident edges, with self-loops counted twice (the standard convention
// for weighted modularity). It is maintained incrementally, so reads are
// O(1) and the summation order — hence the floating-point result — is the
// deterministic insertion order.
func (g *Graph) Strength(v int) float64 {
	g.check(v)
	return g.strength[v]
}

// SortedNeighbors returns the neighbours of v and the weights of the edges
// to them, in ascending neighbour order; the self-loop, if any, appears
// once. The slice is a view of the graph's own storage: callers must not
// modify it, and any AddWeight on this graph invalidates it.
func (g *Graph) SortedNeighbors(v int) []Neighbor {
	g.check(v)
	return g.adj[v]
}

// UpperNeighbors returns the neighbours of u that are u or higher — u's
// share of Edges(), in its order — as a view of SortedNeighbors(u).
func (g *Graph) UpperNeighbors(u int) []Neighbor {
	g.check(u)
	i, _ := g.find(u, u)
	return g.adj[u][i:]
}

// Edges returns all edges with U <= V, sorted by (U, V). The slice is
// freshly allocated.
func (g *Graph) Edges() []Edge {
	if g.edges == 0 {
		return nil
	}
	out := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, e := range g.UpperNeighbors(u) {
			out = append(out, Edge{U: u, V: e.V, Weight: e.Weight})
		}
	}
	return out
}

// EdgeCount returns the number of distinct edges (self-loops included).
func (g *Graph) EdgeCount() int { return g.edges }

// Reserve makes room for degrees[v] neighbours at every vertex v, so a
// caller that knows the shape of what it is about to insert (a decoder, a
// copy) pays one allocation instead of growing N slices by doubling.
func (g *Graph) Reserve(degrees []int) {
	if len(degrees) != g.n {
		panic(fmt.Sprintf("graph: Reserve got %d degrees for %d vertices", len(degrees), g.n))
	}
	g.reserve(func(v int) int { return degrees[v] })
}

// reserve is Reserve with the degrees given as a function, so a caller
// with them at hand in another shape builds no slice to pass them.
func (g *Graph) reserve(degree func(v int) int) {
	need := 0
	for v, a := range g.adj {
		if d := degree(v); d > cap(a) {
			need += d
		}
	}
	slab := make([]Neighbor, need)
	for v, a := range g.adj {
		if d := degree(v); d > cap(a) {
			k := copy(slab[:d], a)
			g.adj[v], slab = slab[:k:d], slab[d:]
		}
	}
}

// shell returns an edgeless copy of g — same vertices and labels — with
// room for g's own adjacency.
func (g *Graph) shell() *Graph {
	out := New(g.n)
	out.labels = slices.Clone(g.labels)
	out.reserve(func(v int) int { return len(g.adj[v]) })
	return out
}

// TopFraction returns a copy of the graph keeping only the strongest
// fraction of edges by weight (0 < frac <= 1). The paper renders layouts
// with the top 50% of edges; the tomography pipeline can also use this to
// denoise sparse measurements. Vertices are preserved.
func (g *Graph) TopFraction(frac float64) *Graph {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("graph: TopFraction fraction %g out of (0,1]", frac))
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	keep := int(float64(float64(len(edges))*frac) + 0.5)
	if keep > len(edges) {
		keep = len(edges)
	}
	out := g.shell()
	for _, e := range edges[:keep] {
		out.AddWeight(e.U, e.V, e.Weight)
	}
	return out
}

// ScaleInto returns a copy of g with every edge weight multiplied by k
// (k > 0). Dividing aggregated fragment counts by the iteration count
// (Eq. 2) is a ScaleInto(dst, 1/n).
//
// The copy is rebuilt edge by edge through AddWeight, in Edges() order, so
// that its strengths and total are the sums a graph built from the scaled
// weights would hold — not g's sums times k, which differ in the last bit.
//
// When dst has g's vertex count, dst is emptied, takes g's labels, is
// rebuilt in place and returned — its rows keep their storage and grow to
// the capacity of g's rows, so a graph rescaled from the same growing
// source settles into reusing all of it. Otherwise (a nil dst included)
// the copy is a fresh graph. Either way the result is the same bit for
// bit. dst must not be g.
func (g *Graph) ScaleInto(dst *Graph, k float64) *Graph {
	if k <= 0 {
		panic("graph: Scale factor must be positive")
	}
	switch {
	case dst == g:
		panic("graph: ScaleInto onto its own source")
	case dst == nil || dst.n != g.n:
		dst = g.shell()
	default:
		if g.labels == nil {
			dst.labels = nil
		} else {
			dst.labels = append(dst.labels[:0], g.labels...)
		}
		for v := range dst.adj {
			dst.adj[v] = dst.adj[v][:0]
		}
		clear(dst.strength)
		dst.total, dst.edges = 0, 0
		dst.reserve(func(v int) int { return cap(g.adj[v]) })
	}
	for u := range g.adj {
		for _, e := range g.UpperNeighbors(u) {
			dst.AddWeight(u, e.V, e.Weight*k)
		}
	}
	return dst
}

// edgeChunk is the number of pairs an EdgeList allocates at a time (64 KB).
const edgeChunk = 4096

type packedEdge struct {
	u, v int32
	w    float64
}

// EdgeList is an append-only list of weighted vertex pairs, the input of
// FromEdges. A pair takes 16 bytes, and the list grows by fixed-size
// chunks, so a reader that does not know how many edges are coming never
// copies the ones it has. The zero value is an empty list.
type EdgeList struct {
	chunks [][]packedEdge
}

// Add appends the pair (u,v) with weight w. Vertex ids are held as int32.
func (l *EdgeList) Add(u, v int, w float64) {
	if uint(u) > math.MaxInt32 || uint(v) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: edge (%d,%d) outside the vertex range [0,2^31)", u, v))
	}
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1]) == edgeChunk {
		l.chunks = append(l.chunks, make([]packedEdge, 0, edgeChunk))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], packedEdge{int32(u), int32(v), w})
}

// FromEdges returns the graph that New(len(labels)), SetLabel for every
// label and AddWeight for every pair of the list, in list order, build —
// with every weight, Strength and TotalWeight equal to that loop's bit for
// bit, and panicking where it would (a vertex out of range, a weight
// summing below zero). It takes ownership of labels.
//
// Strengths and the total are summed in list order and repeats of a pair
// are merged in list order, which is all AddWeight's arithmetic depends
// on; the adjacency is allocated once. A list whose positive-weight pairs
// reach every vertex in ascending neighbour order — Edges() order, the
// order archives are written in — is laid out as it comes; any other
// vertex's neighbours are put in place by one stable sort, so the worst
// case is O(E log² E) where the AddWeight loop shifts a tail per insert
// and is quadratic in a vertex's degree.
func FromEdges(labels []string, edges *EdgeList) *Graph {
	n := len(labels)
	g := &Graph{n: n, labels: labels, adj: make([][]Neighbor, n), strength: make([]float64, n)}
	room := make([]int, n)
	for _, c := range edges.chunks {
		for _, e := range c {
			u, v := int(e.u), int(e.v)
			g.check(u)
			g.check(v)
			g.total += e.w
			room[u]++
			if u == v {
				g.strength[u] += 2 * e.w
			} else {
				g.strength[u] += e.w
				g.strength[v] += e.w
				room[v]++
			}
		}
	}
	// One slab holds every row; room[u] becomes the end of u's entries.
	end := 0
	for u, d := range room {
		room[u] = end
		end += d
	}
	slab := make([]Neighbor, end)
	for _, c := range edges.chunks {
		for _, e := range c {
			u, v := int(e.u), int(e.v)
			slab[room[u]] = Neighbor{V: v, Weight: e.w}
			room[u]++
			if u != v {
				slab[room[v]] = Neighbor{V: u, Weight: e.w}
				room[v]++
			}
		}
	}
	start := 0
	for u := range g.adj {
		g.adj[u], start = mergeNeighbors(u, slab[start:room[u]:room[u]]), room[u]
		g.edges += len(g.UpperNeighbors(u))
	}
	return g
}

// FromDense returns the graph on k = len(strength) vertices whose edge
// (u, v), u <= v, weighs cells[u*k+v] (absent where zero; cells below the
// diagonal are not read). Strengths (copied) and the total are taken as
// given, so a caller that summed them in another graph's Edges() order
// keeps exactly the bits an AddWeight loop in that order would hold.
func FromDense(cells, strength []float64, total float64) *Graph {
	k := len(strength)
	g := &Graph{n: k, adj: make([][]Neighbor, k), strength: slices.Clone(strength), total: total}
	cell := func(u, v int) float64 { return cells[min(u, v)*k+max(u, v)] }
	room := 0
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if cell(u, v) != 0 {
				room++
			}
		}
	}
	slab := make([]Neighbor, 0, room)
	for u := 0; u < k; u++ {
		start := len(slab)
		for v := 0; v < k; v++ {
			if w := cell(u, v); w != 0 {
				slab = append(slab, Neighbor{V: v, Weight: w})
			}
		}
		g.adj[u] = slab[start:len(slab):len(slab)]
		g.edges += len(g.UpperNeighbors(u))
	}
	return g
}

// mergeNeighbors turns vertex u's entries in insertion order, repeats
// included, into its adjacency: ascending by neighbour, each neighbour's
// weights summed in insertion order as successive AddWeight calls sum
// them, and a neighbour whose weights cancel left out. Entries that
// already are an adjacency — strictly ascending, every weight positive —
// are returned as they came.
func mergeNeighbors(u int, a []Neighbor) []Neighbor {
	settled := true
	for i, e := range a {
		if !(e.Weight > 0) || i > 0 && a[i-1].V >= e.V {
			settled = false
			break
		}
	}
	if settled {
		return a
	}
	slices.SortStableFunc(a, func(x, y Neighbor) int { return cmp.Compare(x.V, y.V) })
	out := a[:0]
	for i := 0; i < len(a); {
		e := a[i]
		e.Weight = 0
		for ; i < len(a) && a[i].V == e.V; i++ {
			e.Weight += a[i].Weight
			if e.Weight < 0 {
				panic(fmt.Sprintf("graph: edge (%d,%d) weight would become negative (%g)", u, e.V, e.Weight))
			}
		}
		if e.Weight != 0 {
			out = append(out, e)
		}
	}
	return out
}
