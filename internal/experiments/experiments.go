// Package experiments regenerates every table and figure of the paper's
// evaluation (Names is the index). Each experiment returns the data it
// produced together with a rendered table; the Runner optionally writes
// CSV and figure files for plotting.
//
// The experiments are shared by cmd/experiments (full paper scale) and
// the test suite (small scale). Config.Scale shrinks the broadcast
// payload; everything else stays at protocol defaults so the dynamics
// remain representative.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// Config tunes the harness.
type Config struct {
	// Scale multiplies the broadcast payload (1.0 = the paper's 239 MB).
	// Iteration counts are never scaled; the paper's convergence story
	// depends on them.
	Scale float64
	// Iterations overrides the per-experiment iteration counts when > 0.
	Iterations int
	// Seed drives all randomness.
	Seed int64
	// Out receives rendered tables (nil discards them).
	Out io.Writer
	// DataDir, when non-empty, receives CSV series and DOT/SVG figures.
	DataDir string
	// Workers, when > 1, parallelises the harness. The budget applies at
	// the outermost level that can fan out, never multiplicatively:
	// RunAll runs that many experiments concurrently (each internally
	// sequential), a lone Datasets experiment sweeps that many datasets
	// concurrently, and a single-run experiment fans its measurement
	// iterations out via core.Options.Workers (bit-identical to a single
	// worker). 0 or 1 keeps everything sequential.
	Workers int
}

// DefaultConfig is the full paper-scale configuration printing to stdout.
func DefaultConfig() Config {
	return Config{Scale: 1, Seed: 1, Out: os.Stdout}
}

// Runner executes experiments.
type Runner struct {
	cfg Config
}

// New returns a Runner, normalising the config.
func New(cfg Config) *Runner {
	if cfg.Scale <= 0 {
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
	if r.cfg.Workers > 1 {
		opts.Workers = r.cfg.Workers
	}
	return opts
}

func (r *Runner) emit(t *report.Table) error {
	return t.Write(r.cfg.Out)
}

func (r *Runner) saveCSV(name string, t *report.Table) error {
	if r.cfg.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.DataDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.cfg.DataDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// Names lists the runnable experiments in paper order, followed by the
// Future-Work extensions (E15 hierarchy, E16 randomized stress, E17
// network drift, E18 sim-vs-wire substrate comparison).
var Names = []string{"fig4", "fig5", "efficiency", "cost", "netpipe", "datasets", "ablation", "hierarchy", "stress", "drift", "simreal"}

// Run executes one named experiment.
func (r *Runner) Run(name string) error {
	switch name {
	case "fig4":
		_, err := r.Fig4()
		return err
	case "fig5":
		_, err := r.Fig5()
		return err
	case "efficiency":
		_, err := r.Efficiency()
		return err
	case "cost":
		_, err := r.Cost()
		return err
	case "netpipe":
		_, err := r.NetPipe()
		return err
	case "datasets":
		_, err := r.Datasets()
		return err
	case "ablation":
		_, err := r.Ablation()
		return err
	case "hierarchy":
		_, err := r.Hierarchy()
		return err
	case "stress":
		_, err := r.Stress()
		return err
	case "drift":
		_, err := r.Drift()
		return err
	case "simreal":
		_, err := r.SimReal()
		return err
	default:
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
}

// RunAll executes every experiment. With cfg.Workers > 1 the experiments
// run concurrently (bounded by Workers), each writing into its own buffer;
// the buffers are emitted in paper order, so the rendered output is
// indistinguishable from a sequential run; on failure whatever ran is
// still emitted, in paper order, ahead of the error. The sequential
// branch stays because it streams each table as its experiment finishes.
func (r *Runner) RunAll() error {
	if r.cfg.Workers <= 1 {
		for _, name := range Names {
			if err := r.Run(name); err != nil {
				return fmt.Errorf("experiments: %s: %w", name, err)
			}
		}
		return nil
	}
	bufs := make([]bytes.Buffer, len(Names))
	runErr := fanOut(r.cfg.Workers, len(Names), func(i int) error {
		sub := r.cfg
		sub.Out = &bufs[i]
		// The experiment fan-out owns the whole worker budget; the
		// experiments themselves run sequentially inside so the
		// total concurrency stays at Workers, not Workers squared.
		sub.Workers = 1
		if err := New(sub).Run(Names[i]); err != nil {
			return fmt.Errorf("experiments: %s: %w", Names[i], err)
		}
		return nil
	})
	for i := range bufs {
		if _, err := bufs[i].WriteTo(r.cfg.Out); err != nil {
			return err
		}
	}
	return runErr
}

// fanOut runs task(0) … task(n-1) on a pool of max(workers, 1)
// goroutines that claim indices in ascending order. It fails fast: once a
// task has returned an error no further index is claimed (tasks already
// claimed drain). Every index below a claimed one has itself been
// claimed, so returning the lowest-index error names the same failure
// whatever the scheduling.
func fanOut(workers, n int, task func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = task(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// E1 / Fig. 4: metric values for all edges to a fixed node, local cluster
// versus remote, aggregated over iterations.

// Fig4Data is the result of the Fig. 4 experiment.
type Fig4Data struct {
	Node                  int
	LocalPerEdge          []float64 // w(e) to same-site peers
	RemotePerEdge         []float64 // w(e) to remote-site peers
	LocalTotal            float64
	RemoteTotal           float64
	LocalMean, RemoteMean float64
	Ratio                 float64
	Table                 *report.Table
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
	data := &Fig4Data{Node: node}
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
	data.Table = t
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
