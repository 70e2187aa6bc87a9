package experiments

// Spec sweeps: measure an arbitrary list of declarative scenarios — JSON
// files, registry entries or generated families — with the same parallel
// machinery as the paper's dataset suite. This is how workloads beyond
// the paper's six datasets enter the harness: generate or load specs,
// hand them to SweepSpecs, and read one comparison table.

import (
	"fmt"

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
		res    *core.Result
		n      int
		truthK int
	}
	runs := make([]sweepRun, len(specs))
	err := fanOut(r.cfg.Workers, len(specs), func(i int) error {
		spec := specs[i]
		d, err := spec.Compile()
		if err != nil {
			return fmt.Errorf("spec %s: %w", spec.Name, err)
		}
		// The sweep owns the worker budget; see Datasets.
		opts := r.options(sweepIterations).WithWorkers(1)
		opts.ClusterEvery = 0
		res, err := core.RunDataset(d, opts)
		if err != nil {
			return fmt.Errorf("spec %s: %w", spec.Name, err)
		}
		runs[i] = sweepRun{res: res, n: d.N(), truthK: countLabels(d.GroundTruth)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	data := &SweepData{}
	t := &report.Table{
		Title:   "Scenario sweep — declarative specs through the tomography pipeline",
		Header:  []string{"scenario", "hosts", "truth k", "found k", "NMI", "Q", "mean bcast (s)"},
		Caption: "one row per spec; ground truth as declared by the scenario",
	}
	for i, s := range specs {
		res := runs[i].res
		out := SweepOutcome{
			Name:         s.Name,
			Hosts:        runs[i].n,
			TruthK:       runs[i].truthK,
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
