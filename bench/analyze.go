package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nmi"
	"repro/internal/persist"
)

// analyze is the paper's phase 2 alone (`bttomo -load`): a serialised
// measurement graph goes in, a clustering, its scores, the hierarchy,
// the bottleneck report and the re-serialised graph come out.
//
// Like the tomo-* workloads it draws its graph, Louvain visit order and
// hierarchy seed from modelSeed, not from -seed: over seeds 11-20 one
// repetition took 3.6-5.6 s and 115k-131k allocations depending on
// whether Louvain and the hierarchy happened to need an extra level —
// a property of the draw, not of the code under test.
type analyze struct {
	cfg                config
	vertices, clusters int

	input []byte // the planted-partition graph as persist.WriteGraph wrote it
	truth []int

	// outputs of the last rep
	labels    []int
	q, score  float64
	depth     int
	boundary  int
	rewritten []byte

	oracle oracle
}

func newAnalyze(cfg config) *analyze {
	a := &analyze{cfg: cfg, vertices: 1024, clusters: 16, oracle: newOracle(wAnalyze, cfg)}
	if cfg.toy {
		a.vertices, a.clusters = 64, 4
	}
	return a
}

// planted builds the complete planted-partition graph: equal clusters,
// intra-cluster weights uniform in [40,80), inter-cluster in [2,8).
func (a *analyze) planted() (*graph.Graph, []int) {
	rng := rand.New(rand.NewSource(modelSeed))
	per := a.vertices / a.clusters
	truth := make([]int, a.vertices)
	for v := range truth {
		truth[v] = v / per
	}
	g := graph.New(a.vertices)
	for u := 0; u < a.vertices; u++ {
		for v := u + 1; v < a.vertices; v++ {
			if truth[u] == truth[v] {
				g.AddWeight(u, v, 40+40*rng.Float64())
			} else {
				g.AddWeight(u, v, 2+6*rng.Float64())
			}
		}
	}
	return g, truth
}

func (a *analyze) setup() error {
	g, truth := a.planted()
	var buf bytes.Buffer
	if err := persist.WriteGraph(&buf, g); err != nil {
		return err
	}
	a.input, a.truth = buf.Bytes(), truth
	return nil
}

func (a *analyze) rep(tr *tracer, parent *span) error {
	sp := tr.start(parent, "persist.graph_read", 0)
	g, err := persist.ReadGraph(bytes.NewReader(a.input))
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start(parent, "cluster.louvain", 0)
	lr := cluster.Louvain(g, rand.New(rand.NewSource(modelSeed)))
	sp.end()
	sp = tr.start(parent, "cluster.modularity", 0)
	a.q = cluster.Modularity(g, lr.Partition)
	sp.end()
	sp = tr.start(parent, "nmi.lfk", 0)
	a.score = nmi.LFKPartition(a.truth, lr.Partition.Labels)
	sp.end()
	sp = tr.start(parent, "core.hierarchy", 0)
	hopts := core.DefaultHierarchyOptions()
	hopts.Seed = modelSeed
	a.depth = core.Hierarchy(g, hopts).Depth()
	sp.end()
	sp = tr.start(parent, "core.bottlenecks", 0)
	a.boundary = len(core.Bottlenecks(g, lr.Partition))
	sp.end()
	var out bytes.Buffer
	sp = tr.start(parent, "persist.graph_write", 0)
	err = persist.WriteGraph(&out, g)
	sp.end()
	a.labels, a.rewritten = lr.Partition.Labels, out.Bytes()
	return err
}

// check demands the planted answer (every cluster found, NMI exactly 1,
// a boundary per cluster pair, the graph surviving the round trip) and
// a label digest equal to the first repetition's and to the pinned one.
func (a *analyze) check(*tracer, *span) (int, int, error) {
	h := sha256.New()
	for _, l := range a.labels {
		fmt.Fprintf(h, "%d,", l)
	}
	fmt.Fprintf(h, "q=%x depth=%d boundaries=%d", a.q, a.depth, a.boundary)
	failed := a.oracle.mismatch(hex.EncodeToString(h.Sum(nil)))
	found := cluster.NewPartition(a.labels).NumClusters()
	if found != a.clusters || a.score != 1 || a.boundary != a.clusters*(a.clusters-1)/2 || !bytes.Equal(a.rewritten, a.input) {
		fmt.Printf("# analyze: %d clusters (want %d), NMI %v (want 1), %d boundaries, round trip equal %v\n",
			found, a.clusters, a.score, a.boundary, bytes.Equal(a.rewritten, a.input))
		failed = 1
	}
	return 1, failed, nil
}

func (a *analyze) layers(tr *tracer, lv layerValues) error {
	for metricName, spanName := range map[string]string{
		"persist.graph_read_s":  "persist.graph_read",
		"cluster.louvain_s":     "cluster.louvain",
		"cluster.modularity_s":  "cluster.modularity",
		"nmi.lfk_s":             "nmi.lfk",
		"core.hierarchy_s":      "core.hierarchy",
		"core.bottlenecks_s":    "core.bottlenecks",
		"persist.graph_write_s": "persist.graph_write",
	} {
		lv[metricName] = median(tr.durations(spanName))
	}
	// graph.build_s: the adjacency structure alone, without the JSON
	// decoding persist.graph_read_s includes.
	g, _ := a.planted()
	edges := g.Edges()
	root := tr.start(nil, "layers", 0)
	build, err := timeN(3, func() error {
		sp := tr.start(root, "graph.build", 0)
		defer sp.end()
		built := graph.New(g.N())
		for _, e := range edges {
			built.AddWeight(e.U, e.V, e.Weight)
		}
		return nil
	})
	root.end()
	if err != nil {
		return err
	}
	lv["graph.build_s"] = build
	lv["cluster.clusters"] = float64(cluster.NewPartition(a.labels).NumClusters())
	lv["nmi"] = a.score
	telemetryLayer(lv, a.cfg)
	return nil
}

func (a *analyze) close() {}
