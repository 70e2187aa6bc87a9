// Package cluster implements the analysis phase of the paper's tomography
// pipeline: weighted modularity (Newman–Girvan), the Louvain modularity
// optimiser of Blondel et al. used as the primary clustering method
// (§III-A/B), and a map-equation (Infomap-style) optimiser used as the
// comparison baseline the paper found inferior for this problem (§III-D).
package cluster

import (
	"fmt"
	"sort"
)

// Partition is a cluster assignment: Labels[v] is the cluster id of vertex
// v. Ids are dense, 0..NumClusters-1, in order of first appearance, so two
// partitions induce the same grouping exactly when their Labels are equal.
type Partition struct {
	Labels []int
	k      int
}

// NewPartition normalises an arbitrary label slice into a Partition with
// dense ids.
func NewPartition(labels []int) Partition {
	out := make([]int, len(labels))
	remap := make(map[int]int)
	for i, l := range labels {
		id, ok := remap[l]
		if !ok {
			id = len(remap)
			remap[l] = id
		}
		out[i] = id
	}
	return Partition{Labels: out, k: len(remap)}
}

// N returns the number of vertices.
func (p Partition) N() int { return len(p.Labels) }

// NumClusters returns the number of distinct clusters.
func (p Partition) NumClusters() int { return p.k }

// Clusters returns the partition as a list of vertex sets, ordered by
// cluster id; each set is sorted.
func (p Partition) Clusters() [][]int {
	out := make([][]int, p.k)
	for v, l := range p.Labels {
		out[l] = append(out[l], v)
	}
	for _, c := range out {
		sort.Ints(c)
	}
	return out
}

// Sizes returns the size of each cluster by id.
func (p Partition) Sizes() []int {
	out := make([]int, p.k)
	for _, l := range p.Labels {
		out[l]++
	}
	return out
}

func (p Partition) String() string {
	return fmt.Sprintf("partition of %d vertices into %d clusters %v", len(p.Labels), p.k, p.Sizes())
}
