package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// twoCliques builds two k-cliques of weight strong joined by one weak edge.
func twoCliques(k int, strong, weak float64) (*graph.Graph, Partition) {
	g := graph.New(2 * k)
	truth := make([]int, 2*k)
	for side := 0; side < 2; side++ {
		base := side * k
		for i := 0; i < k; i++ {
			truth[base+i] = side
			for j := i + 1; j < k; j++ {
				g.AddWeight(base+i, base+j, strong)
			}
		}
	}
	g.AddWeight(0, k, weak)
	return g, NewPartition(truth)
}

// ring builds a cycle of n vertices with unit weights.
func ring(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddWeight(i, (i+1)%n, 1)
	}
	return g
}

func TestNewPartitionDenseLabels(t *testing.T) {
	p := NewPartition([]int{7, 7, 3, 7, 3, 9})
	want := []int{0, 0, 1, 0, 1, 2}
	for i := range want {
		if p.Labels[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", p.Labels, want)
		}
	}
	if p.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d, want 3", p.NumClusters())
	}
}

func TestPartitionClustersAndSizes(t *testing.T) {
	p := NewPartition([]int{0, 1, 0, 1, 1})
	cs := p.Clusters()
	if len(cs) != 2 || len(cs[0]) != 2 || len(cs[1]) != 3 {
		t.Fatalf("Clusters = %v", cs)
	}
	if cs[0][0] != 0 || cs[0][1] != 2 {
		t.Fatalf("cluster 0 = %v, want [0 2]", cs[0])
	}
	sz := p.Sizes()
	if sz[0] != 2 || sz[1] != 3 {
		t.Fatalf("Sizes = %v", sz)
	}
}

// NewPartition's dense ids are a canonical form: two partitions group the
// vertices alike exactly when their Labels are equal.
func TestPartitionEqual(t *testing.T) {
	a := NewPartition([]int{0, 0, 1, 1})
	b := NewPartition([]int{5, 5, 2, 2})
	c := NewPartition([]int{0, 1, 0, 1})
	d := NewPartition([]int{0, 0, 0, 1})
	if !slices.Equal(a.Labels, b.Labels) {
		t.Fatal("label-permuted partitions should have equal Labels")
	}
	if slices.Equal(a.Labels, c.Labels) || slices.Equal(a.Labels, d.Labels) {
		t.Fatal("different groupings have equal Labels")
	}
}

func TestModularityTwoCliques(t *testing.T) {
	g, truth := twoCliques(8, 1, 0.1)
	qTruth := Modularity(g, truth)
	qOne := Modularity(g, NewPartition(make([]int, 16)))
	qSingle := Modularity(g, singletons(16))
	if qTruth <= qOne {
		t.Fatalf("truth Q=%g should beat all-in-one Q=%g", qTruth, qOne)
	}
	if qTruth <= qSingle {
		t.Fatalf("truth Q=%g should beat singletons Q=%g", qTruth, qSingle)
	}
	// Near-perfect two-community structure: Q approaches 1/2.
	if qTruth < 0.45 || qTruth > 0.5 {
		t.Fatalf("two-clique truth Q = %g, want in [0.45, 0.5]", qTruth)
	}
}

func TestModularityAllInOneIsZero(t *testing.T) {
	g, _ := twoCliques(5, 1, 1)
	q := Modularity(g, NewPartition(make([]int, 10)))
	// For the single-community partition, in/2m = 1 and (tot/2m)^2 = 1.
	if math.Abs(q) > 1e-12 {
		t.Fatalf("all-in-one Q = %g, want 0", q)
	}
}

func TestModularityWeighted(t *testing.T) {
	// Same topology, scaled weights: Q is scale-invariant.
	g1, truth := twoCliques(6, 1, 0.2)
	g2, _ := twoCliques(6, 10, 2)
	q1, q2 := Modularity(g1, truth), Modularity(g2, truth)
	if math.Abs(q1-q2) > 1e-12 {
		t.Fatalf("modularity not scale-invariant: %g vs %g", q1, q2)
	}
}

func TestModularitySelfLoopHandling(t *testing.T) {
	// Aggregating a partition into super-nodes with self-loops must
	// preserve modularity (the invariant Louvain relies on).
	g, truth := twoCliques(6, 1, 0.3)
	agg := aggregate(g, truth)
	aggPart := singletons(agg.N())
	q1, q2 := Modularity(g, truth), Modularity(agg, aggPart)
	if math.Abs(q1-q2) > 1e-12 {
		t.Fatalf("aggregation changed modularity: %g vs %g", q1, q2)
	}
}

func TestLouvainRecoverTwoCliques(t *testing.T) {
	g, truth := twoCliques(8, 1, 0.1)
	res := Louvain(g, rand.New(rand.NewSource(1)))
	if !slices.Equal(res.Partition.Labels, truth.Labels) {
		t.Fatalf("Louvain found %v, want the two cliques", res.Partition)
	}
	if math.Abs(res.Q-Modularity(g, truth)) > 1e-12 {
		t.Fatalf("reported Q=%g differs from recomputed %g", res.Q, Modularity(g, truth))
	}
}

func TestLouvainFourCliques(t *testing.T) {
	k := 6
	g := graph.New(4 * k)
	truth := make([]int, 4*k)
	for c := 0; c < 4; c++ {
		for i := 0; i < k; i++ {
			truth[c*k+i] = c
			for j := i + 1; j < k; j++ {
				g.AddWeight(c*k+i, c*k+j, 1)
			}
		}
	}
	// Sparse weak inter-clique edges in a ring.
	for c := 0; c < 4; c++ {
		g.AddWeight(c*k, ((c+1)%4)*k, 0.1)
	}
	res := Louvain(g, rand.New(rand.NewSource(2)))
	if !slices.Equal(res.Partition.Labels, NewPartition(truth).Labels) {
		t.Fatalf("Louvain found %v, want 4 cliques of %d", res.Partition, k)
	}
}

func TestLouvainSingleClusterWhenUniform(t *testing.T) {
	// A small complete graph with uniform weights has no community
	// structure; Louvain should not split it (any split has Q <= 0).
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddWeight(i, j, 1)
		}
	}
	res := Louvain(g, rand.New(rand.NewSource(3)))
	if res.Partition.NumClusters() != 1 {
		t.Fatalf("uniform K6 split into %d clusters", res.Partition.NumClusters())
	}
}

func TestLouvainEmptyAndTinyGraphs(t *testing.T) {
	res := Louvain(graph.New(0), nil)
	if res.Partition.N() != 0 {
		t.Fatal("empty graph should give empty partition")
	}
	res = Louvain(graph.New(3), nil) // no edges
	if res.Partition.N() != 3 {
		t.Fatal("edgeless graph lost vertices")
	}
}

func TestLouvainDeterministicGivenSeed(t *testing.T) {
	g, _ := twoCliques(10, 1, 0.2)
	g.AddWeight(2, 13, 0.15)
	g.AddWeight(4, 17, 0.12)
	a := Louvain(g, rand.New(rand.NewSource(5)))
	b := Louvain(g, rand.New(rand.NewSource(5)))
	if !slices.Equal(a.Partition.Labels, b.Partition.Labels) || a.Q != b.Q {
		t.Fatal("Louvain not deterministic for a fixed seed")
	}
}

func TestLouvainWeightSensitivity(t *testing.T) {
	// Two cliques joined by an edge as strong as the internal ones:
	// with k=3 and a strong bridge, the best partition may merge; with a
	// weak bridge it must split. This checks weights actually matter.
	weak, truthW := twoCliques(6, 1, 0.05)
	resW := Louvain(weak, rand.New(rand.NewSource(7)))
	if !slices.Equal(resW.Partition.Labels, truthW.Labels) {
		t.Fatalf("weak bridge: got %v", resW.Partition)
	}
	qSplit := Modularity(weak, resW.Partition)
	strong, _ := twoCliques(6, 1, 20)
	resS := Louvain(strong, rand.New(rand.NewSource(7)))
	qStrong := Modularity(strong, resS.Partition)
	if qStrong >= qSplit {
		t.Fatalf("heavy bridge should reduce achievable Q: %g vs %g", qStrong, qSplit)
	}
}

func TestLouvainLevelsMonotone(t *testing.T) {
	g, _ := twoCliques(12, 1, 0.1)
	g.AddWeight(1, 14, 0.05)
	res := Louvain(g, rand.New(rand.NewSource(8)))
	if len(res.Levels) == 0 {
		t.Fatal("no dendrogram levels")
	}
	prev := -1.0
	for i, p := range res.Levels {
		q := Modularity(g, p)
		if q < prev-1e-9 {
			t.Fatalf("level %d modularity %g dropped below %g", i, q, prev)
		}
		prev = q
	}
	last := res.Levels[len(res.Levels)-1]
	if !slices.Equal(last.Labels, res.Partition.Labels) && Modularity(g, last) < res.Q-1e-9 {
		// Partition must be the best cut.
		t.Fatal("returned partition is not the best dendrogram cut")
	}
}

// Property: Louvain's result never has lower modularity than both the
// trivial partitions (all-in-one, singletons).
func TestLouvainBeatsTrivialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 4
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddWeight(u, v, rng.Float64()*5+0.1)
			}
		}
		res := Louvain(g, rng)
		qOne := Modularity(g, NewPartition(make([]int, n)))
		qSingle := Modularity(g, singletons(n))
		return res.Q >= qOne-1e-9 && res.Q >= qSingle-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: reported Q matches recomputed modularity of the partition.
func TestLouvainQConsistentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		g := graph.New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddWeight(u, v, float64(rng.Intn(9)+1))
			}
		}
		res := Louvain(g, rng)
		return math.Abs(res.Q-Modularity(g, res.Partition)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMapEquationPrefersTruthOnCliques(t *testing.T) {
	g, truth := twoCliques(8, 1, 0.1)
	lTruth := MapEquation(g, truth)
	lOne := MapEquation(g, NewPartition(make([]int, 16)))
	lSingle := MapEquation(g, singletons(16))
	if lTruth >= lOne {
		t.Fatalf("truth L=%g should beat all-in-one L=%g", lTruth, lOne)
	}
	if lTruth >= lSingle {
		t.Fatalf("truth L=%g should beat singletons L=%g", lTruth, lSingle)
	}
}

func TestInfomapRecoversCliques(t *testing.T) {
	g, truth := twoCliques(8, 1, 0.1)
	res := Infomap(g, rand.New(rand.NewSource(4)))
	if !slices.Equal(res.Partition.Labels, truth.Labels) {
		t.Fatalf("Infomap found %v, want the two cliques", res.Partition)
	}
	if math.Abs(res.Bits-MapEquation(g, res.Partition)) > 1e-9 {
		t.Fatal("reported Bits inconsistent with MapEquation")
	}
}

func TestInfomapRingStaysTogether(t *testing.T) {
	// Infomap on a short uniform ring should not fragment into
	// singletons (description length of singletons is maximal).
	g := ring(8)
	res := Infomap(g, rand.New(rand.NewSource(5)))
	if res.Partition.NumClusters() == 8 {
		t.Fatal("Infomap returned all singletons on a ring")
	}
}

func TestInfomapDeterministic(t *testing.T) {
	g, _ := twoCliques(6, 1, 0.3)
	a := Infomap(g, rand.New(rand.NewSource(6)))
	b := Infomap(g, rand.New(rand.NewSource(6)))
	if !slices.Equal(a.Partition.Labels, b.Partition.Labels) {
		t.Fatal("Infomap not deterministic for a fixed seed")
	}
}

func TestAggregatePreservesTotalWeight(t *testing.T) {
	g, truth := twoCliques(5, 2, 0.5)
	agg := aggregate(g, truth)
	if math.Abs(agg.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatalf("aggregate weight %g != original %g", agg.TotalWeight(), g.TotalWeight())
	}
	if agg.N() != 2 {
		t.Fatalf("aggregate N = %d, want 2", agg.N())
	}
	if agg.Weight(0, 1) != 0.5 {
		t.Fatalf("inter-cluster weight = %g, want 0.5", agg.Weight(0, 1))
	}
}

// singletons returns the partition placing every vertex alone.
func singletons(n int) Partition {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	return NewPartition(labels)
}
