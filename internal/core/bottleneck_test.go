package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// boundaryGraph builds 3 groups of 3 with intra weight 100 and controlled
// cross weights: groups 0-1 weakly joined (w=10), group 2 nearly isolated
// (w=1 to both).
func boundaryGraph() (*graph.Graph, cluster.Partition) {
	g := graph.New(9)
	truth := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			switch {
			case truth[i] == truth[j]:
				g.AddWeight(i, j, 100)
			case truth[i]+truth[j] == 1: // 0-1 boundary
				g.AddWeight(i, j, 10)
			default:
				g.AddWeight(i, j, 1)
			}
		}
	}
	return g, cluster.NewPartition(truth)
}

func TestBottlenecksRankedBySeverity(t *testing.T) {
	g, p := boundaryGraph()
	bs := Bottlenecks(g, p)
	if len(bs) != 3 {
		t.Fatalf("boundaries = %d, want 3 (all cluster pairs)", len(bs))
	}
	// The two w=1 boundaries (0-2 and 1-2) are the most suppressed.
	if bs[0].Suppression < bs[2].Suppression {
		t.Fatal("boundaries not sorted by decreasing suppression")
	}
	worst := map[[2]int]bool{{0, 2}: true, {1, 2}: true}
	if !worst[[2]int{bs[0].ClusterA, bs[0].ClusterB}] || !worst[[2]int{bs[1].ClusterA, bs[1].ClusterB}] {
		t.Fatalf("most suppressed boundaries are %v and %v, want 0|2 and 1|2", bs[0], bs[1])
	}
	// Suppression values: intra mean 100; boundaries 10 and 1.
	if math.Abs(bs[2].Suppression-10) > 1e-9 {
		t.Fatalf("0|1 suppression = %g, want 10", bs[2].Suppression)
	}
	if math.Abs(bs[0].Suppression-100) > 1e-9 {
		t.Fatalf("worst suppression = %g, want 100", bs[0].Suppression)
	}
	// Edge accounting.
	if bs[0].Possible != 9 || bs[0].Edges != 9 {
		t.Fatalf("boundary pair counts wrong: %+v", bs[0])
	}
}

func TestBottlenecksSingleClusterEmpty(t *testing.T) {
	g := graph.New(4)
	g.AddWeight(0, 1, 1)
	if got := Bottlenecks(g, cluster.NewPartition([]int{0, 0, 0, 0})); got != nil {
		t.Fatalf("single cluster should have no boundaries, got %v", got)
	}
}

func TestBottlenecksMissingEdges(t *testing.T) {
	// Two clusters with NO measured cross edges at all: the boundary is
	// reported with zero mean weight and zero suppression (cannot divide).
	g := graph.New(4)
	g.AddWeight(0, 1, 100)
	g.AddWeight(2, 3, 100)
	bs := Bottlenecks(g, cluster.NewPartition([]int{0, 0, 1, 1}))
	if len(bs) != 1 {
		t.Fatalf("boundaries = %d, want 1", len(bs))
	}
	if bs[0].Edges != 0 || bs[0].MeanEdgeWeight != 0 || bs[0].Suppression != 0 {
		t.Fatalf("empty boundary misreported: %+v", bs[0])
	}
	if bs[0].Possible != 4 {
		t.Fatalf("possible pairs = %d, want 4", bs[0].Possible)
	}
}

func TestBottleneckStringReadable(t *testing.T) {
	g, p := boundaryGraph()
	bs := Bottlenecks(g, p)
	s := bs[0].String()
	for _, want := range []string{"clusters", "mean w", "suppressed"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestBottlenecksOnMeasuredDumbbell(t *testing.T) {
	// End to end: measure the WAN dumbbell and confirm the discovered
	// boundary shows strong suppression.
	net, hosts, truth := smallDumbbell()
	res, err := Run(net, hosts, truth, testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	bs := Bottlenecks(res.Graph, res.Partition)
	if len(bs) != 1 {
		t.Fatalf("boundaries = %d, want 1", len(bs))
	}
	if bs[0].Suppression < 1.5 {
		t.Fatalf("suppression = %.2f, want > 1.5 across the WAN divider", bs[0].Suppression)
	}
}
