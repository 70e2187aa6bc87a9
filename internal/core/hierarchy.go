package core

// Hierarchical tomography — the extension sketched in the paper's Future
// Work (§V): "both the network clustering algorithm used, and the NMI
// evaluation method, extend to overlapping multi-level hierarchical
// clusterings".
//
// The flat method takes the best single cut of the Louvain dendrogram and
// therefore cannot express "two sites, one of which splits into two
// logical clusters" — exactly why the BT dataset's NMI plateaus at ≈0.7
// (§IV-C). The hierarchical variant keeps every dendrogram level and, in
// addition, re-clusters each top-level cluster in isolation (restricting
// the measurement graph to its members), recovering intra-site structure
// that the global modularity objective washes out.

import (
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/nmi"
)

// HierarchyNode is one cluster in the hierarchical decomposition.
type HierarchyNode struct {
	// Members are the host indices of this cluster, sorted.
	Members []int
	// Q is the modularity of the split of this node's subgraph into its
	// children (0 when the node is a leaf).
	Q float64
	// Children are the sub-clusters (nil for leaves).
	Children []*HierarchyNode
}

// Leaf reports whether the node has no sub-structure.
func (h *HierarchyNode) Leaf() bool { return len(h.Children) == 0 }

// Depth returns the height of the hierarchy below (and including) the
// node: 1 for a leaf.
func (h *HierarchyNode) Depth() int {
	best := 0
	for _, c := range h.Children {
		if d := c.Depth(); d > best {
			best = d
		}
	}
	return best + 1
}

// LevelPartition returns the partition induced by cutting the hierarchy
// at the given depth (0 = root: everything in one cluster; 1 = top-level
// clusters; deeper levels refine further, with shallow branches keeping
// their leaves).
func (h *HierarchyNode) LevelPartition(depth int, n int) cluster.Partition {
	labels := make([]int, n)
	next := 0
	var assign func(node *HierarchyNode, d int)
	assign = func(node *HierarchyNode, d int) {
		if d <= 0 || node.Leaf() {
			for _, m := range node.Members {
				labels[m] = next
			}
			next++
			return
		}
		for _, c := range node.Children {
			assign(c, d-1)
		}
	}
	assign(h, depth)
	return cluster.NewPartition(labels)
}

// Flatten returns the finest partition of the hierarchy (all leaves).
func (h *HierarchyNode) Flatten(n int) cluster.Partition {
	return h.LevelPartition(1<<30, n)
}

// Cover returns all clusters at every level (excluding the root) as a
// cover for overlap-capable NMI scoring: a node may then be credited for
// matching truth clusters at any granularity.
func (h *HierarchyNode) Cover() nmi.Cover {
	var out nmi.Cover
	var walk func(node *HierarchyNode, root bool)
	walk = func(node *HierarchyNode, root bool) {
		if !root {
			out = append(out, append([]int(nil), node.Members...))
		}
		for _, c := range node.Children {
			walk(c, false)
		}
	}
	walk(h, true)
	if len(out) == 0 {
		out = append(out, append([]int(nil), h.Members...))
	}
	return out
}

// HierarchyOptions tunes the recursive decomposition.
type HierarchyOptions struct {
	// MaxDepth bounds the recursion (>= 1; default 3).
	MaxDepth int
	// MinClusterSize stops splitting clusters at or below this size
	// (default 4).
	MinClusterSize int
	// MinQ is the minimum modularity a split must achieve on the
	// sub-graph to be accepted (default 0.12); below it the cluster is a
	// leaf. This is the guard against shattering noise into structure
	// (the modularity landscape is bumpy even on structureless graphs;
	// Good et al., discussed in §III-D).
	MinQ float64
	// Seed drives the Louvain visit order.
	Seed int64
}

// DefaultHierarchyOptions returns the standard configuration.
func DefaultHierarchyOptions() HierarchyOptions {
	return HierarchyOptions{MaxDepth: 3, MinClusterSize: 4, MinQ: 0.12, Seed: 1}
}

// Hierarchy decomposes a measurement graph recursively: Louvain on the
// whole graph gives the top level; each cluster's induced subgraph is
// re-clustered in isolation, where local bandwidth contrasts dominate the
// objective again. The top level is cluster.Louvain on g itself, so it
// reads g's own strengths and total, in whatever order g summed them; a
// subgraph sums its strengths in ascending-neighbour order and its total
// in Edges() order.
func Hierarchy(g *graph.Graph, opts HierarchyOptions) *HierarchyNode {
	if opts.MaxDepth < 1 {
		opts.MaxDepth = DefaultHierarchyOptions().MaxDepth
	}
	if opts.MinClusterSize < 2 {
		opts.MinClusterSize = DefaultHierarchyOptions().MinClusterSize
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	return split(g, all, make([]int, g.N()), opts, opts.MaxDepth)
}

// split decomposes g over members (ascending, owned by the node it returns).
func split(g *graph.Graph, members, toSub []int, opts HierarchyOptions, depth int) *HierarchyNode {
	node := &HierarchyNode{Members: members}
	if depth <= 0 || len(members) <= opts.MinClusterSize {
		return node
	}
	sub := g
	if len(members) < g.N() {
		sub = induced(g, members, toSub)
	}
	res := cluster.Louvain(sub, rand.New(rand.NewSource(opts.Seed)))
	if res.Partition.NumClusters() < 2 || res.Q < opts.MinQ {
		return node
	}
	node.Q = res.Q
	for _, subMembers := range res.Partition.Clusters() {
		for i, sv := range subMembers {
			subMembers[i] = members[sv]
		}
		node.Children = append(node.Children, split(g, subMembers, toSub, opts, depth-1))
	}
	return node
}

// induced builds the unlabelled subgraph of g over members (ascending): its
// vertex i is members[i]. toSub is scratch of g.N() entries, shared by every
// call: u is a member at i exactly when toSub[u] = i and members[i] = u, so
// what earlier calls left in it does no harm.
func induced(g *graph.Graph, members, toSub []int) *graph.Graph {
	for i, v := range members {
		toSub[v] = i
	}
	sub := graph.New(len(members))
	// Size the adjacency first: a large cluster would grow it by doubling.
	degrees := make([]int, len(members))
	for i, v := range members {
		for _, e := range g.UpperNeighbors(v) {
			if j := toSub[e.V]; j < len(members) && members[j] == e.V {
				degrees[i]++
				degrees[j] += min(j-i, 1) // a self-loop is one entry
			}
		}
	}
	sub.Reserve(degrees)
	for i, v := range members {
		for _, e := range g.UpperNeighbors(v) { // each edge once: Edges() order
			if j := toSub[e.V]; j < len(members) && members[j] == e.V {
				sub.AddWeight(i, j, e.Weight)
			}
		}
	}
	return sub
}

// HierarchicalNMI scores a hierarchy against a flat ground truth with the
// overlap-capable LFK measure, using all levels of the hierarchy as a
// cover. A hierarchy that contains the truth clusters at any level gets
// full credit for them — the scoring the paper's future-work section
// anticipates.
func HierarchicalNMI(truth []int, h *HierarchyNode) float64 {
	truthCover := nmi.CoverFromLabels(truth)
	found := h.Cover()
	if len(found) == 0 {
		return math.NaN()
	}
	return nmi.LFK(truthCover, found, len(truth))
}
