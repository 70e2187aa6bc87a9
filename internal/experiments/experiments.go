// Package experiments regenerates every table and figure of the paper's
// evaluation (Names is the index). Each experiment emits its tables to
// Config.Out and returns the data they were rendered from; the Runner
// optionally writes CSV and figure files for plotting.
//
// The experiments are shared by cmd/experiments (full paper scale) and
// the test suite (small scale). Config.Scale shrinks the broadcast
// payload; everything else stays at protocol defaults so the dynamics
// remain representative.
package experiments

import (
	"fmt"
	"io"
	"math"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// Config tunes the harness.
type Config struct {
	// Scale multiplies the broadcast payload (1.0 = the paper's 239 MB;
	// 0 means 1). Iteration counts are never scaled; the paper's
	// convergence story depends on them.
	Scale float64
	// Iterations overrides the per-experiment iteration counts when > 0.
	Iterations int
	// Seed drives all randomness.
	Seed int64
	// Out receives rendered tables (nil discards them).
	Out io.Writer
	// DataDir, when non-empty, receives CSV series and DOT/SVG figures.
	DataDir string
	// Workers is every run's core.Options.Workers (0 means 1): the
	// measurement iterations of each run fan out over that many
	// replicas, bit-identically to a single worker. The experiments
	// themselves run one after another.
	Workers int
}

// Runner executes experiments.
type Runner struct {
	cfg Config
}

// New returns a Runner, normalising the config.
func New(cfg Config) *Runner {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	return &Runner{cfg: cfg}
}

func (r *Runner) options(iters int) core.Options {
	opts := core.DefaultOptions().WithScale(r.cfg.Scale)
	opts.Seed = r.cfg.Seed
	if r.cfg.Iterations > 0 {
		iters = r.cfg.Iterations
	}
	opts.Iterations = iters
	opts.Workers = r.cfg.Workers
	return opts
}

func (r *Runner) emit(t *report.Table) error {
	return t.Write(r.cfg.Out)
}

// save writes the named artifact into DataDir, atomically: a failed write
// leaves no truncated file behind. Without a DataDir it writes nothing.
func (r *Runner) save(name string, write func(io.Writer) error) error {
	if r.cfg.DataDir == "" {
		return nil
	}
	return persist.WriteAtomic(filepath.Join(r.cfg.DataDir, name), write)
}

func (r *Runner) saveCSV(name string, t *report.Table) error { return r.save(name, t.WriteCSV) }

// publish emits t and saves it as the named CSV.
func (r *Runner) publish(name string, t *report.Table) error {
	if err := r.emit(t); err != nil {
		return err
	}
	return r.saveCSV(name, t)
}

// experimentTable is the index, in paper order followed by the
// Future-Work extensions (E15 hierarchy, E16 randomized stress, E17
// network drift, E18 sim-vs-wire substrate comparison).
var experimentTable = []struct {
	name string
	run  func(*Runner) error
}{
	{"fig4", discard((*Runner).Fig4)},
	{"fig5", discard((*Runner).Fig5)},
	{"efficiency", discard((*Runner).Efficiency)},
	{"cost", discard((*Runner).Cost)},
	{"netpipe", discard((*Runner).NetPipe)},
	{"datasets", discard((*Runner).Datasets)},
	{"ablation", discard((*Runner).Ablation)},
	{"hierarchy", discard((*Runner).Hierarchy)},
	{"stress", discard((*Runner).Stress)},
	{"drift", discard((*Runner).Drift)},
	{"simreal", discard((*Runner).SimReal)},
}

// discard adapts an experiment method to the table, dropping its data.
func discard[T any](f func(*Runner) (T, error)) func(*Runner) error {
	return func(r *Runner) error {
		_, err := f(r)
		return err
	}
}

// Names lists the runnable experiments in table order.
var Names = func() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}()

// Run executes one named experiment.
func (r *Runner) Run(name string) error {
	for _, e := range experimentTable {
		if e.name == name {
			return e.run(r)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
}

// RunAll executes every experiment in table order, streaming each table
// as its experiment finishes.
func (r *Runner) RunAll() error {
	for _, e := range experimentTable {
		if err := e.run(r); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.name, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// E1 / Fig. 4: metric values for all edges to a fixed node, local cluster
// versus remote, aggregated over iterations.

// Fig4Data is the result of the Fig. 4 experiment.
type Fig4Data struct {
	LocalPerEdge          []float64 // w(e) to same-site peers
	RemotePerEdge         []float64 // w(e) to remote-site peers
	LocalTotal            float64
	RemoteTotal           float64
	LocalMean, RemoteMean float64
	Ratio                 float64
}

// Fig4 reproduces Fig. 4 on the BT dataset (two sites): the per-edge
// metric from one fixed Bordeaux node to its 31 local peers versus the 32
// Toulouse peers, aggregated over 36 iterations. The paper's shape: local
// edges carry several times the remote edges' fragments (22533 vs 6337 in
// total over 36 iterations there).
func (r *Runner) Fig4() (*Fig4Data, error) {
	d, err := scenario.New("BT")
	if err != nil {
		return nil, err
	}
	opts := r.options(36)
	opts.ClusterEvery = 0 // measurement only
	res, err := core.RunDataset(d, opts)
	if err != nil {
		return nil, err
	}
	const node = 0 // a Bordeplage node; local peers are all Bordeaux nodes
	data := &Fig4Data{}
	localSite := siteOf(d, node)
	for peer := 0; peer < d.N(); peer++ {
		if peer == node {
			continue
		}
		w := res.Graph.Weight(min(node, peer), max(node, peer))
		if siteOf(d, peer) == localSite {
			data.LocalPerEdge = append(data.LocalPerEdge, w)
			data.LocalTotal += w
		} else {
			data.RemotePerEdge = append(data.RemotePerEdge, w)
			data.RemoteTotal += w
		}
	}
	data.LocalMean = data.LocalTotal / float64(len(data.LocalPerEdge))
	data.RemoteMean = data.RemoteTotal / float64(len(data.RemotePerEdge))
	if data.RemoteMean > 0 {
		data.Ratio = data.LocalMean / data.RemoteMean
	}

	t := &report.Table{
		Title:  "E1 / Fig.4 — exchanged fragments per edge to a fixed node (BT dataset)",
		Header: []string{"peer group", "edges", "mean w(e)", "total w(e)"},
		Caption: fmt.Sprintf("local/remote per-edge ratio = %.2f; paper's shape: local >> remote (≈3.6x)",
			data.Ratio),
	}
	t.AddRow("local site", len(data.LocalPerEdge), data.LocalMean, data.LocalTotal)
	t.AddRow("remote site", len(data.RemotePerEdge), data.RemoteMean, data.RemoteTotal)
	if err := r.emit(t); err != nil {
		return nil, err
	}
	bars := &report.Table{Header: []string{"peer", "group", "w"}}
	for i, w := range data.LocalPerEdge {
		bars.AddRow(i, "local", w)
	}
	for i, w := range data.RemotePerEdge {
		bars.AddRow(i, "remote", w)
	}
	if err := r.saveCSV("fig4_bars.csv", bars); err != nil {
		return nil, err
	}
	return data, nil
}

// siteOf maps a host index to a coarse site id using the host-name prefix.
func siteOf(d *topology.Dataset, host int) string {
	name := d.HostName(host)
	for i := 0; i < len(name); i++ {
		if name[i] == '-' {
			prefix := name[:i]
			// The three Bordeaux clusters are one site.
			switch prefix {
			case "bordeplage", "bordereau", "borderline":
				return "bordeaux"
			}
			return prefix
		}
	}
	return name
}

// absorb NaN for table rendering.
func fin(v float64) float64 {
	if math.IsNaN(v) {
		return -1
	}
	return v
}
