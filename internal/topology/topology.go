// Package topology holds the ready-to-measure Dataset type that scenario
// specs compile to. Package scenario is the one place networks are
// defined, the paper's Grid'5000 link parameters included.
package topology

import (
	"repro/internal/dynamics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Dataset is a ready-to-measure network: hosts in a fixed order, the
// simulator they live in, and the ground-truth clustering the tomography
// method is evaluated against.
type Dataset struct {
	Name  string
	Eng   *sim.Engine
	Net   *simnet.Network
	Hosts []int // vertex ids, indexed by dense host index 0..N-1

	// GroundTruth[i] is the logical cluster label of host i. For most
	// datasets this is one label per site; for Bordeaux it encodes the
	// Bordeplage | Bordereau+Borderline split.
	GroundTruth []int
	// TruthNote documents how the ground truth was derived.
	TruthNote string
	// Timeline, when non-nil, is the dataset's compiled network-dynamics
	// schedule (the Dynamics section of the scenario spec it was built
	// from). core.RunDataset replays it on every measurement replica; it
	// is immutable and safely shared by Replicate.
	Timeline *dynamics.Timeline
}

// N returns the number of hosts.
func (d *Dataset) N() int { return len(d.Hosts) }

// Replicate returns an independent copy of the dataset on a fresh
// simulation engine: the same topology (including any runtime capacity
// changes), hosts, and ground truth, but no simulated state. It is the
// dataset-level convenience over simnet.Network.Clone — the same
// primitive the measurement pipeline uses per iteration — and suits
// callers running independent sweeps over
// one topology from their own goroutines. It panics if the dataset's
// network has active flows (replicate before measuring, not mid-run).
func (d *Dataset) Replicate() *Dataset {
	eng := sim.NewEngine()
	return &Dataset{
		Name:        d.Name,
		Eng:         eng,
		Net:         d.Net.Clone(eng),
		Hosts:       append([]int(nil), d.Hosts...),
		GroundTruth: append([]int(nil), d.GroundTruth...),
		TruthNote:   d.TruthNote,
		Timeline:    d.Timeline,
	}
}

// HostName returns the display name of host index i.
func (d *Dataset) HostName(i int) string { return d.Net.Name(d.Hosts[i]) }
