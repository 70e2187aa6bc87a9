package experiments

// E13 / §III-D: Louvain versus Infomap on the same measurement graphs,
// plus ablations of the design knobs (request batch size, root rotation,
// edge filtering).

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nmi"
	"repro/internal/report"
	"repro/internal/scenario"
)

// AblationRow compares clustering methods on one dataset.
type AblationRow struct {
	Dataset    string
	LouvainNMI float64
	LouvainK   int
	InfomapNMI float64
	InfomapK   int
}

// AblationData is the result of the ablation experiment.
type AblationData struct {
	Rows []AblationRow
}

// Ablation runs the §III-D comparison — the paper "finds that [Infomap]
// does not perform as well as modularity based clustering for this
// particular problem" — and a set of measurement-knob ablations.
func (r *Runner) Ablation() (*AblationData, error) {
	data := &AblationData{}
	iters := 12
	for _, name := range []string{"B", "GT", "BGT"} {
		d, err := scenario.New(name)
		if err != nil {
			return nil, err
		}
		opts := r.options(iters)
		opts.ClusterEvery = 0
		res, err := core.RunDataset(d, opts)
		if err != nil {
			return nil, err
		}
		lou := cluster.Louvain(res.Graph, rand.New(rand.NewSource(r.cfg.Seed)))
		info := cluster.Infomap(res.Graph, rand.New(rand.NewSource(r.cfg.Seed)))
		data.Rows = append(data.Rows, AblationRow{
			Dataset:    name,
			LouvainNMI: nmi.LFKPartition(d.GroundTruth, lou.Partition.Labels),
			LouvainK:   lou.Partition.NumClusters(),
			InfomapNMI: nmi.LFKPartition(d.GroundTruth, info.Partition.Labels),
			InfomapK:   info.Partition.NumClusters(),
		})
	}
	t := &report.Table{
		Title:   "E13 / §III-D — Louvain (modularity) vs Infomap (map equation) on the same graphs",
		Header:  []string{"dataset", "louvain NMI", "louvain k", "infomap NMI", "infomap k"},
		Caption: "paper's finding: modularity clustering outperforms Infomap for this problem",
	}
	for _, row := range data.Rows {
		t.AddRow(row.Dataset, row.LouvainNMI, row.LouvainK, row.InfomapNMI, row.InfomapK)
	}
	if err := r.publish("e13_ablation.csv", t); err != nil {
		return nil, err
	}

	// Design-knob ablations on GT.
	run := func(mutate func(*core.Options)) (float64, int, error) {
		d, err := scenario.New("GT")
		if err != nil {
			return 0, 0, err
		}
		opts := r.options(iters)
		opts.ClusterEvery = 0
		mutate(&opts)
		res, err := core.RunDataset(d, opts)
		if err != nil {
			return 0, 0, err
		}
		return res.NMI, res.Partition.NumClusters(), nil
	}
	knobs := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"defaults", func(*core.Options) {}},
		{"batch=4 fragments", func(o *core.Options) { o.BT.BatchFragments = 4 }},
		{"batch=64 fragments", func(o *core.Options) { o.BT.BatchFragments = 64 }},
		{"rotate root", func(o *core.Options) { o.RotateRoot = true }},
		{"top 50% edges", func(o *core.Options) { o.TopFraction = 0.5 }},
		{"upload slots=8", func(o *core.Options) { o.BT.UploadSlots = 8 }},
		{"no peer cap", func(o *core.Options) { o.BT.MaxPeers = 1 << 20 }},
	}
	kt := &report.Table{
		Title:   "E13b — design-knob ablations (GT dataset, final NMI)",
		Header:  []string{"knob", "NMI", "clusters"},
		Caption: "robustness of the pipeline to measurement parameters",
	}
	for _, k := range knobs {
		nmiV, kk, err := run(k.mutate)
		if err != nil {
			return nil, err
		}
		kt.AddRow(k.name, fin(nmiV), kk)
	}
	return data, r.publish("e13b_knobs.csv", kt)
}
