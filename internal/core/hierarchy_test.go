package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/nmi"
	"repro/internal/persist"
)

// nestedGraph builds a 2-level planted hierarchy over 16 vertices:
// two super-clusters {0..7} and {8..15}; the first splits into {0..3} and
// {4..7}. Weights: 10 within sub-clusters, 3 within the first
// super-cluster, 3 within the second (flat), 0.5 across super-clusters.
func nestedGraph() *graph.Graph {
	g := graph.New(16)
	w := func(i, j int) float64 {
		super := func(v int) int { return v / 8 }
		sub := func(v int) int { return v / 4 }
		switch {
		case sub(i) == sub(j) && i < 8:
			return 10
		case super(i) == super(j) && i >= 8:
			return 10 // flat second super-cluster
		case super(i) == super(j):
			return 3
		default:
			return 0.5
		}
	}
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			g.AddWeight(i, j, w(i, j))
		}
	}
	return g
}

func TestHierarchyRecoversNestedStructure(t *testing.T) {
	h := Hierarchy(nestedGraph(), DefaultHierarchyOptions())
	if h.Leaf() {
		t.Fatal("hierarchy found no top-level structure")
	}
	top := h.LevelPartition(1, 16)
	if top.NumClusters() != 2 {
		t.Fatalf("top level has %d clusters, want 2", top.NumClusters())
	}
	// The {0..7} super-cluster must split further; find it.
	var splitNode, flatNode *HierarchyNode
	for _, c := range h.Children {
		if c.Members[0] == 0 {
			splitNode = c
		} else {
			flatNode = c
		}
	}
	if splitNode == nil || flatNode == nil {
		t.Fatalf("top-level clusters misassigned: %v", top.Clusters())
	}
	if splitNode.Leaf() {
		t.Fatal("nested super-cluster was not split")
	}
	if len(splitNode.Children) != 2 {
		t.Fatalf("nested super-cluster split into %d parts, want 2", len(splitNode.Children))
	}
	if !flatNode.Leaf() {
		t.Fatalf("flat super-cluster was split into %d parts", len(flatNode.Children))
	}
}

func TestHierarchyFlattenMatchesFinestTruth(t *testing.T) {
	h := Hierarchy(nestedGraph(), DefaultHierarchyOptions())
	finest := h.Flatten(16)
	truth := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
	if got := nmi.LFKPartition(truth, finest.Labels); got < 0.99 {
		t.Fatalf("finest level NMI = %.3f, want 1 (truth has 3 leaves)", got)
	}
}

func TestHierarchicalNMIBeatsFlatOnNestedTruth(t *testing.T) {
	// The BT-scenario effect (§IV-C): a flat 2-cluster answer against a
	// 3-part truth caps below 1; the hierarchy contains all three truth
	// clusters across its levels and scores higher.
	g := nestedGraph()
	truth := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
	h := Hierarchy(g, DefaultHierarchyOptions())
	flat2 := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	flatScore := nmi.LFKPartition(truth, flat2)
	hierScore := HierarchicalNMI(truth, h)
	if hierScore <= flatScore {
		t.Fatalf("hierarchical NMI %.3f should beat flat %.3f", hierScore, flatScore)
	}
	// All three truth clusters appear verbatim in the hierarchy, so the
	// truth side is matched perfectly; the only cost is the extra
	// super-cluster community on the found side.
	if hierScore < 0.85 {
		t.Fatalf("hierarchical NMI = %.3f, want > 0.85 (truth present across levels)", hierScore)
	}
}

func TestHierarchyLevelPartitions(t *testing.T) {
	h := Hierarchy(nestedGraph(), DefaultHierarchyOptions())
	if p := h.LevelPartition(0, 16); p.NumClusters() != 1 {
		t.Fatalf("depth 0 has %d clusters, want 1", p.NumClusters())
	}
	p1 := h.LevelPartition(1, 16)
	p2 := h.LevelPartition(2, 16)
	if p2.NumClusters() <= p1.NumClusters() {
		t.Fatalf("depth 2 (%d clusters) should refine depth 1 (%d)",
			p2.NumClusters(), p1.NumClusters())
	}
	// Refinement property: same level-1 cluster for any pair implies the
	// pair was together at level 0; deeper levels only split.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if p2.Labels[i] == p2.Labels[j] && p1.Labels[i] != p1.Labels[j] {
				t.Fatalf("vertices %d,%d together at depth 2 but apart at depth 1", i, j)
			}
		}
	}
}

func TestHierarchyRespectsMinQ(t *testing.T) {
	// A uniform clique has no structure at any level: the root must be a
	// leaf under the MinQ guard.
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			g.AddWeight(i, j, 1)
		}
	}
	h := Hierarchy(g, DefaultHierarchyOptions())
	if !h.Leaf() {
		t.Fatalf("uniform clique split into %d clusters", len(h.Children))
	}
}

func TestHierarchyMinClusterSize(t *testing.T) {
	opts := DefaultHierarchyOptions()
	opts.MinClusterSize = 8
	h := Hierarchy(nestedGraph(), opts)
	// Top split gives two clusters of 8; both are at MinClusterSize and
	// must not split further.
	for _, c := range h.Children {
		if !c.Leaf() {
			t.Fatal("cluster at MinClusterSize was split")
		}
	}
}

func TestHierarchyMaxDepth(t *testing.T) {
	opts := DefaultHierarchyOptions()
	opts.MaxDepth = 1
	h := Hierarchy(nestedGraph(), opts)
	if h.Depth() > 2 {
		t.Fatalf("Depth = %d with MaxDepth 1, want <= 2", h.Depth())
	}
	for _, c := range h.Children {
		if !c.Leaf() {
			t.Fatal("MaxDepth=1 still produced grandchildren")
		}
	}
}

func TestHierarchyCoverContainsAllLevels(t *testing.T) {
	h := Hierarchy(nestedGraph(), DefaultHierarchyOptions())
	cover := h.Cover()
	// Expect at least: 2 top clusters + 2 sub-clusters of the nested one.
	if len(cover) < 4 {
		t.Fatalf("cover has %d communities, want >= 4", len(cover))
	}
	sizes := map[int]int{}
	for _, c := range cover {
		sizes[len(c)]++
	}
	if sizes[8] < 2 || sizes[4] < 2 {
		t.Fatalf("cover sizes %v, want two 8s and two 4s", sizes)
	}
}

func TestHierarchyOnRandomGraphsNeverPanics(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		g := graph.New(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddWeight(u, v, rng.Float64()*10)
			}
		}
		h := Hierarchy(g, DefaultHierarchyOptions())
		flat := h.Flatten(n)
		if flat.N() != n {
			t.Fatalf("seed %d: flatten lost vertices", seed)
		}
		// Every vertex appears exactly once at the finest level.
		seen := make([]bool, n)
		for _, c := range flat.Clusters() {
			for _, v := range c {
				if seen[v] {
					t.Fatalf("seed %d: vertex %d in two leaves", seed, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestHierarchicalNMIEmptyTruthSafe(t *testing.T) {
	g := graph.New(4)
	g.AddWeight(0, 1, 1)
	h := Hierarchy(g, DefaultHierarchyOptions())
	if len(h.Members) != 4 {
		t.Fatalf("root holds %d of 4 vertices", len(h.Members))
	}
	for _, truth := range [][]int{{0, 0, 1, 1}, {0, 0, 0, 0}} {
		if score := HierarchicalNMI(truth, h); math.IsNaN(score) || score < 0 || score > 1 {
			t.Fatalf("degenerate hierarchy NMI against %v = %v", truth, score)
		}
	}
}

// TestHierarchyRootIsLouvainOnG holds the top level of the hierarchy to
// cluster.Louvain on the graph Hierarchy is given, bit for bit: on a graph
// built in Edges() order (as core's mean graph is), on its archive round
// trip (as a loaded graph is), and on the same edges inserted in descending
// order, whose strengths and total are summed in another order and so may
// differ from a canonical copy's in the last bit.
func TestHierarchyRootIsLouvainOnG(t *testing.T) {
	var doc bytes.Buffer
	if err := persist.WriteGraph(&doc, planted256()); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.ReadGraph(&doc)
	if err != nil {
		t.Fatal(err)
	}
	edges := planted256().Edges()
	descending := graph.New(256)
	for i := len(edges) - 1; i >= 0; i-- {
		descending.AddWeight(edges[i].U, edges[i].V, edges[i].Weight)
	}
	opts := DefaultHierarchyOptions()
	opts.Seed = 7
	for name, g := range map[string]*graph.Graph{"planted256": planted256(), "loaded": loaded, "descending": descending} {
		want := cluster.Louvain(g, rand.New(rand.NewSource(opts.Seed)))
		h := Hierarchy(g, opts)
		if got := math.Float64bits(h.Q); got != math.Float64bits(want.Q) {
			t.Errorf("%s: root Q bits %#x, want Louvain's %#x", name, got, math.Float64bits(want.Q))
		}
		clusters := want.Partition.Clusters()
		if len(h.Children) != len(clusters) {
			t.Fatalf("%s: %d top-level clusters, want Louvain's %d", name, len(h.Children), len(clusters))
		}
		for i, c := range h.Children {
			if !slices.Equal(c.Members, clusters[i]) {
				t.Errorf("%s: top-level cluster %d = %v, want Louvain's %v", name, i, c.Members, clusters[i])
			}
		}
	}
}

// TestHierarchyAllocatesLessThanACopy: Hierarchy clusters the graph it is
// given, so one decomposition of a labelled graph allocates less than one
// copy of that graph's adjacency (16 bytes per entry, two entries per
// edge) — no root copy, and no labels for subgraphs only Louvain reads.
func TestHierarchyAllocatesLessThanACopy(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g := planted256()
	for v := 0; v < g.N(); v++ {
		g.SetLabel(v, fmt.Sprintf("site-%d.host-%d", v/64, v))
	}
	copyBytes := uint64(2 * 16 * g.EdgeCount())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Hierarchy(g, DefaultHierarchyOptions())
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= copyBytes {
		t.Errorf("Hierarchy allocated %d bytes, not less than one adjacency copy's %d", got, copyBytes)
	}
}

var sinkHierarchy *HierarchyNode

// BenchmarkHierarchyPlanted1k decomposes the shape of the repo benchmark's
// analyze-1k workload — the complete graph on 1024 vertices in 16 planted
// clusters, cluster.BenchmarkLouvainPlanted1k's graph, labelled as a loaded
// graph is — so Louvain on the whole graph and on the 16 induced subgraphs
// of 64 vertices is what gets timed.
func BenchmarkHierarchyPlanted1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New(1024)
	for u := 0; u < 1024; u++ {
		g.SetLabel(u, fmt.Sprintf("h%d", u))
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
		sinkHierarchy = Hierarchy(g, DefaultHierarchyOptions())
	}
	if k := len(sinkHierarchy.Children); k != 16 {
		b.Fatalf("top level has %d clusters, want the 16 planted", k)
	}
}
