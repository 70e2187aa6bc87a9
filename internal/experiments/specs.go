package experiments

// Spec sweeps: measure an arbitrary list of declarative scenarios — JSON
// files, registry entries or generated families — with the same parallel
// machinery as the paper's dataset suite. This is how workloads beyond
// the paper's six datasets enter the harness: generate or load specs,
// hand them to SweepSpecs, and read one comparison table.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scenario"
)

// SweepOutcome is the result of one scenario in a spec sweep.
type SweepOutcome struct {
	Name   string
	Hosts  int
	TruthK int
	FoundK int
	NMI    float64
	Q      float64
	// MeanDuration is the average simulated broadcast duration.
	MeanDuration float64
	Result       *core.Result
}

// SweepData aggregates a spec sweep.
type SweepData struct {
	Outcomes []SweepOutcome
	Table    *report.Table
}

// sweepIterations is the default per-scenario iteration count; generated
// multi-site families converge within it at full payload (cf. Fig. 13).
// Config.Iterations overrides it.
const sweepIterations = 15

// SweepSpecs compiles and measures every spec, each on its own fresh
// simulator. With cfg.Workers > 1 the scenarios are measured concurrently
// — each with a single worker, so total concurrency stays at
// Workers — and outcomes are reported in input order regardless of
// completion order. Spec names must be unique within one sweep.
func (r *Runner) SweepSpecs(specs []*scenario.Spec) (*SweepData, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: SweepSpecs needs at least one spec")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if seen[s.Name] {
			return nil, fmt.Errorf("experiments: duplicate spec %q in sweep", s.Name)
		}
		seen[s.Name] = true
	}
	type sweepRun struct {
		res *core.Result
		d   hostsAndTruth
		err error
	}
	runs := make([]sweepRun, len(specs))
	workers := r.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s *scenario.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if failed.Load() {
				runs[i].err = errSweepSkipped
				return
			}
			d, err := s.Compile()
			if err != nil {
				failed.Store(true)
				runs[i].err = err
				return
			}
			opts := r.options(sweepIterations)
			opts.ClusterEvery = 0
			if workers > 1 {
				// The sweep owns the worker budget; see Datasets.
				opts.Workers = 1
			}
			res, err := core.RunDataset(d, opts)
			if err != nil {
				failed.Store(true)
			}
			runs[i] = sweepRun{res: res, d: hostsAndTruth{n: d.N(), truthK: countLabels(d.GroundTruth)}, err: err}
		}(i, s)
	}
	wg.Wait()
	for i, s := range specs {
		if err := runs[i].err; err != nil && err != errSweepSkipped {
			return nil, fmt.Errorf("spec %s: %w", s.Name, err)
		}
	}
	data := &SweepData{}
	t := &report.Table{
		Title:   "Scenario sweep — declarative specs through the tomography pipeline",
		Header:  []string{"scenario", "hosts", "truth k", "found k", "NMI", "Q", "mean bcast (s)"},
		Caption: "one row per spec; ground truth as declared by the scenario",
	}
	for i, s := range specs {
		res := runs[i].res
		if res == nil {
			return nil, fmt.Errorf("spec %s: %w", s.Name, runs[i].err)
		}
		out := SweepOutcome{
			Name:         s.Name,
			Hosts:        runs[i].d.n,
			TruthK:       runs[i].d.truthK,
			FoundK:       res.Partition.NumClusters(),
			NMI:          res.NMI,
			Q:            res.Q,
			MeanDuration: res.TotalMeasurementTime / float64(len(res.Iterations)),
			Result:       res,
		}
		data.Outcomes = append(data.Outcomes, out)
		t.AddRow(out.Name, out.Hosts, out.TruthK, out.FoundK, fin(out.NMI), out.Q, out.MeanDuration)
	}
	data.Table = t
	if err := r.emit(t); err != nil {
		return nil, err
	}
	return data, r.saveCSV("spec_sweep.csv", t)
}

// hostsAndTruth carries the dataset shape out of the sweep goroutine.
type hostsAndTruth struct {
	n      int
	truthK int
}
