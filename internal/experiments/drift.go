package experiments

// E17: the network-dynamics extension. The paper's §V names "dynamically
// altering underlying topology" — overlays, virtual machines, degrading
// hardware — as the natural fit for renewed tomography. This experiment
// quantifies the flip side: how fast does clustering accuracy erode as
// the network actually drifts under the measurement? It sweeps the
// DriftSites scenario family over event intensity; at intensity 0 the
// fabric is static and the clusters recover exactly, and as the scripted
// uplink drift, churn, bursts and failures intensify, the inter-site
// contrast fades and the NMI degrades.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/scenario"
)

// DriftRow is one intensity step of the drift sweep.
type DriftRow struct {
	// Intensity is the DriftSites disturbance level in [0, 1].
	Intensity float64
	// Events is the compiled timeline length at this intensity.
	Events int
	// ActiveFinal is the number of hosts present in the last iteration.
	ActiveFinal int
	TruthK      int
	FoundK      int
	// NMI is the final score, restricted to the hosts active at the end.
	NMI float64
	Q   float64
}

// DriftData is the E17 result.
type DriftData struct {
	Rows []DriftRow
}

// driftIntensities is the swept disturbance grid.
var driftIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// Drift runs E17: tomography on the churn-heavy DriftSites family at
// increasing event intensity. The broadcast payload has the same 8000
// fragment floor as Stress: below it the 3-site family needs far more
// iterations than the sweep runs.
func (r *Runner) Drift() (*DriftData, error) {
	data := &DriftData{}
	for _, x := range driftIntensities {
		spec := scenario.DriftSites(3, 8, 890, 100, x)
		d, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		opts := r.options(12)
		if floor := 8000 * opts.BT.FragmentSize; opts.BT.FileBytes < floor {
			opts.BT.FileBytes = floor
		}
		opts.ClusterEvery = 0
		res, err := core.RunDataset(d, opts)
		if err != nil {
			return nil, fmt.Errorf("intensity %g: %w", x, err)
		}
		final := res.Iterations[len(res.Iterations)-1]
		activeFinal := d.N()
		if final.ActiveHosts != nil {
			activeFinal = len(final.ActiveHosts)
		}
		data.Rows = append(data.Rows, DriftRow{
			Intensity:   x,
			Events:      d.Timeline.Len(),
			ActiveFinal: activeFinal,
			TruthK:      countLabels(d.GroundTruth),
			FoundK:      res.Partition.NumClusters(),
			NMI:         res.NMI,
			Q:           res.Q,
		})
	}
	t := &report.Table{
		Title:  "E17 / §V extension — clustering accuracy under network drift (DriftSites 3x8)",
		Header: []string{"intensity", "events", "active hosts", "truth k", "found k", "NMI", "Q"},
		Caption: "scripted uplink drift, churn, bursts and failures erode the inter-site contrast; " +
			"NMI (scored on the hosts present) degrades as intensity rises",
	}
	for _, row := range data.Rows {
		t.AddRow(row.Intensity, row.Events, row.ActiveFinal, row.TruthK, row.FoundK, fin(row.NMI), row.Q)
	}
	return data, r.publish("e17_drift.csv", t)
}
