package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapGraph is the map-of-maps graph this package used before the sorted
// adjacency, kept verbatim as the oracle: same arithmetic, same insertion
// order, so every float it holds must equal Graph's bit for bit.
type mapGraph struct {
	n        int
	labels   []string
	adj      []map[int]float64
	strength []float64
	total    float64
}

func newMapGraph(n int) *mapGraph {
	g := &mapGraph{
		n:        n,
		labels:   make([]string, n),
		adj:      make([]map[int]float64, n),
		strength: make([]float64, n),
	}
	for i := range g.labels {
		g.labels[i] = fmt.Sprintf("v%d", i)
	}
	return g
}

func (g *mapGraph) AddWeight(u, v int, w float64) {
	if u > v {
		u, v = v, u
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	nw := g.adj[u][v] + w
	if nw < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) weight would become negative (%g)", u, v, nw))
	}
	g.total += w
	if u == v {
		g.strength[u] += 2 * w
	} else {
		g.strength[u] += w
		g.strength[v] += w
	}
	if nw == 0 {
		delete(g.adj[u], v)
		if u != v {
			if g.adj[v] != nil {
				delete(g.adj[v], u)
			}
		}
		return
	}
	g.adj[u][v] = nw
	if u != v {
		if g.adj[v] == nil {
			g.adj[v] = make(map[int]float64)
		}
		g.adj[v][u] = nw
	}
}

func (g *mapGraph) Weight(u, v int) float64 {
	if g.adj[u] == nil {
		return 0
	}
	return g.adj[u][v]
}

func (g *mapGraph) SortedNeighbors(v int) []Neighbor {
	out := make([]Neighbor, 0, len(g.adj[v]))
	for u, w := range g.adj[v] {
		out = append(out, Neighbor{V: u, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

func (g *mapGraph) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for v, w := range g.adj[u] {
			if v >= u {
				out = append(out, Edge{U: u, V: v, Weight: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func (g *mapGraph) EdgeCount() int {
	c := 0
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if v >= u {
				c++
			}
		}
	}
	return c
}

func (g *mapGraph) TopFraction(frac float64) *mapGraph {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	keep := int(float64(len(edges))*frac + 0.5)
	if keep > len(edges) {
		keep = len(edges)
	}
	out := newMapGraph(g.n)
	copy(out.labels, g.labels)
	for _, e := range edges[:keep] {
		out.AddWeight(e.U, e.V, e.Weight)
	}
	return out
}

func (g *mapGraph) Scale(k float64) *mapGraph {
	out := newMapGraph(g.n)
	copy(out.labels, g.labels)
	for _, e := range g.Edges() {
		out.AddWeight(e.U, e.V, e.Weight*k)
	}
	return out
}

// sameEdges compares edge lists by value with weights as bits, treating
// nil and empty alike.
func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

// sameNeighbors is sameEdges for adjacency rows.
func sameNeighbors(a, b []Neighbor) bool {
	return slices.EqualFunc(a, b, func(x, y Neighbor) bool {
		return x.V == y.V && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// requireSame fails unless g and the oracle are observationally identical,
// floats compared as bits.
func requireSame(t *testing.T, ctx string, g *Graph, o *mapGraph) {
	t.Helper()
	if got, want := g.Edges(), o.Edges(); !sameEdges(got, want) {
		t.Fatalf("%s: Edges() = %v, oracle %v", ctx, got, want)
	}
	if got, want := g.EdgeCount(), o.EdgeCount(); got != want {
		t.Fatalf("%s: EdgeCount() = %d, oracle %d", ctx, got, want)
	}
	if got, want := math.Float64bits(g.TotalWeight()), math.Float64bits(o.total); got != want {
		t.Fatalf("%s: TotalWeight bits %#x, oracle %#x", ctx, got, want)
	}
	for v := 0; v < g.N(); v++ {
		if got, want := g.SortedNeighbors(v), o.SortedNeighbors(v); !sameNeighbors(got, want) {
			t.Fatalf("%s: SortedNeighbors(%d) = %v, oracle %v", ctx, v, got, want)
		}
		if got, want := math.Float64bits(g.Strength(v)), math.Float64bits(o.strength[v]); got != want {
			t.Fatalf("%s: Strength(%d) bits %#x, oracle %#x", ctx, v, got, want)
		}
		if g.Label(v) != o.labels[v] {
			t.Fatalf("%s: Label(%d) = %q, oracle %q", ctx, v, g.Label(v), o.labels[v])
		}
		for u := 0; u < g.N(); u++ {
			if got, want := math.Float64bits(g.Weight(u, v)), math.Float64bits(o.Weight(u, v)); got != want {
				t.Fatalf("%s: Weight(%d,%d) bits %#x, oracle %#x", ctx, u, v, got, want)
			}
		}
	}
}

// TestMatchesMapOracle drives Graph and the map-based oracle through the
// same seeded operation sequences — fresh edges in any endpoint order,
// repeated adds, partial and exact (edge-deleting) negative deltas,
// self-loops, re-adds after a delete — and requires bit-identical state
// after every step, and from ScaleInto and TopFraction of the result.
func TestMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		g, o := New(n), newMapGraph(n)
		var live [][2]int // edges that have been added at least once
		steps := 20 + rng.Intn(200)
		for step := 0; step < steps; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			var w float64
			switch op := rng.Intn(10); {
			case op < 5: // fresh or repeated add, endpoints in either order
				w = rng.Float64() * 100
			case op == 5: // self-loop
				v = u
				w = rng.Float64() * 10
			case len(live) == 0:
				w = 1
			case op < 8: // take an edge to exactly zero, which deletes it
				e := live[rng.Intn(len(live))]
				u, v = e[1], e[0]
				w = -g.Weight(u, v)
			case op == 8: // partial negative delta
				e := live[rng.Intn(len(live))]
				u, v = e[0], e[1]
				w = -g.Weight(u, v) * rng.Float64()
			default: // re-add, possibly after a delete
				e := live[rng.Intn(len(live))]
				u, v = e[0], e[1]
				w = rng.Float64()
			}
			g.AddWeight(u, v, w)
			o.AddWeight(u, v, w)
			live = append(live, [2]int{u, v})
			requireSame(t, fmt.Sprintf("seed %d step %d AddWeight(%d,%d,%g)", seed, step, u, v, w), g, o)
		}
		g.SetLabel(0, "relabelled")
		o.labels[0] = "relabelled"
		ctx := fmt.Sprintf("seed %d", seed)
		k := 1 / float64(1+rng.Intn(9))
		requireSame(t, ctx+" ScaleInto", g.ScaleInto(nil, k), o.Scale(k))
		for _, frac := range []float64{0.1, 0.5, 1} {
			requireSame(t, fmt.Sprintf("%s TopFraction(%g)", ctx, frac), g.TopFraction(frac), o.TopFraction(frac))
		}
		// A copy shares nothing with its source.
		c := g.ScaleInto(nil, 1)
		c.AddWeight(0, n-1, 3)
		requireSame(t, ctx+" after mutating a copy", g, o)
	}
}

// TestFromEdgesMatchesAddWeightLoop holds the bulk constructor to its
// contract: for lists in canonical, reversed and arbitrary order — with
// repeats, self-loops, swapped endpoints, zero weights, and negative
// deltas that cancel a pair partly or exactly — it builds what the
// AddWeight loop (and the map oracle driven alongside) builds, every
// weight, Strength and TotalWeight compared as bits.
func TestFromEdgesMatchesAddWeightLoop(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		var pairs []Edge
		sum := map[[2]int]float64{} // running weight per pair, to keep deltas legal
		add := func(u, v int, w float64) {
			pairs = append(pairs, Edge{U: u, V: v, Weight: w})
			if u > v {
				u, v = v, u
			}
			sum[[2]int{u, v}] += w
		}
		switch seed % 3 {
		case 0: // canonical: Edges() order, nothing repeated
			for u := 0; u < n; u++ {
				for v := u; v < n; v++ {
					if rng.Intn(3) > 0 {
						add(u, v, rng.Float64()*100)
					}
				}
			}
		case 1: // every vertex's neighbours descending
			for u := n - 1; u >= 0; u-- {
				for v := n - 1; v >= u; v-- {
					add(v, u, rng.Float64()*100)
				}
			}
		default:
			for k := 20 + rng.Intn(200); k > 0; k-- {
				u, v := rng.Intn(n), rng.Intn(n)
				if u > v && rng.Intn(2) == 0 {
					u, v = v, u
				}
				old := sum[[2]int{min(u, v), max(u, v)}]
				switch op := rng.Intn(10); {
				case op < 6:
					add(u, v, rng.Float64()*100)
				case op == 6:
					add(u, v, 0)
				case op == 7: // cancels the pair exactly; a later add revives it
					add(u, v, -old)
				default:
					add(u, v, -old*rng.Float64())
				}
			}
		}
		labels := make([]string, n)
		loop, o := New(n), newMapGraph(n)
		var list EdgeList
		for v := range labels {
			labels[v] = fmt.Sprintf("host-%d", v)
			loop.SetLabel(v, labels[v])
			o.labels[v] = labels[v]
		}
		for _, e := range pairs {
			list.Add(e.U, e.V, e.Weight)
			loop.AddWeight(e.U, e.V, e.Weight)
			o.AddWeight(e.U, e.V, e.Weight)
		}
		ctx := fmt.Sprintf("seed %d", seed)
		requireSame(t, ctx+" AddWeight loop", loop, o)
		requireSame(t, ctx+" FromEdges", FromEdges(labels, &list), o)
	}
}

// A list longer than one chunk keeps its order across the chunk boundary.
func TestFromEdgesSpansChunks(t *testing.T) {
	const n = 2*edgeChunk + 17
	var list EdgeList
	loop := New(n)
	for v := n - 1; v > 0; v-- {
		w := 1 / float64(v)
		list.Add(0, v, w)
		list.Add(v, 0, w/3)
		loop.AddWeight(0, v, w)
		loop.AddWeight(v, 0, w/3)
	}
	labels := make([]string, n)
	for v := range labels {
		labels[v] = loop.Label(v)
	}
	got := FromEdges(labels, &list)
	if !sameEdges(got.Edges(), loop.Edges()) {
		t.Fatal("edges differ from the AddWeight loop's")
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(loop.TotalWeight()) ||
		math.Float64bits(got.Strength(0)) != math.Float64bits(loop.Strength(0)) {
		t.Fatalf("total %v strength(0) %v, loop %v %v", got.TotalWeight(), got.Strength(0), loop.TotalWeight(), loop.Strength(0))
	}
}

// FromEdges panics where the AddWeight loop would.
func TestFromEdgesPanicsLikeAddWeight(t *testing.T) {
	cases := map[string][]Edge{
		"vertex out of range":   {{U: 0, V: 3, Weight: 1}},
		"weight below zero":     {{U: 0, V: 1, Weight: 2}, {U: 1, V: 0, Weight: -3}, {U: 0, V: 1, Weight: 5}},
		"self-loop below zero":  {{U: 2, V: 2, Weight: -1}},
		"ascending, below zero": {{U: 0, V: 1, Weight: -1}},
	}
	for name, pairs := range cases {
		for _, build := range []func(){
			func() {
				g := New(3)
				for _, e := range pairs {
					g.AddWeight(e.U, e.V, e.Weight)
				}
			},
			func() {
				var list EdgeList
				for _, e := range pairs {
					list.Add(e.U, e.V, e.Weight)
				}
				FromEdges(make([]string, 3), &list)
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", name)
					}
				}()
				build()
			}()
		}
	}
}
