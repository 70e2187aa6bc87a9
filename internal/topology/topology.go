// Package topology holds the ready-to-measure Dataset type that scenario
// specs compile to (package scenario is the one place networks are
// defined) and the Grid'5000 link parameters the paper reports.
//
// The parameters mirror the numbers reported in §IV-A of the paper:
//
//   - Intra-cluster Ethernet delivers about 890 Mbit/s of application
//     payload (NetPIPE, Bordeaux).
//   - A single stream between sites over the Renater optic-fibre backbone
//     reaches about 787 Mbit/s even though the backbone is 10 Gbit/s
//     aggregate; we model that with a per-flow cap on WAN links.
//   - Inside Bordeaux, the Bordeplage cluster reaches the rest of the site
//     through a single 1 GbE connection between the Dell and Cisco
//     switches — the bottleneck the tomography method must discover. The
//     Bordereau and Borderline clusters are joined by a fast link and form
//     one logical cluster.
//   - The Renater network is star-like with Lyon central (Fig. 6).
package topology

import (
	"repro/internal/dynamics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Link parameters shared by all datasets. Capacities are application-level
// achievable rates (protocol efficiency folded in; see simnet.LinkSpec).
var (
	// HostLink connects a compute node to its cluster switch (1 GbE).
	HostLink = simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6}
	// ClusterUplink connects a cluster switch to the site router (10 GbE).
	ClusterUplink = simnet.LinkSpec{Capacity: simnet.Gbps(10), Latency: 50e-6}
	// BordeauxBottleneck is the single 1 GbE Dell-Cisco inter-switch link.
	BordeauxBottleneck = simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6}
	// FastInterSwitch joins Bordereau and Borderline (no bottleneck).
	FastInterSwitch = simnet.LinkSpec{Capacity: simnet.Gbps(10), Latency: 50e-6}
	// WanLink connects a site router to the Renater core. The per-flow
	// cap reproduces the 787 Mbit/s single-stream WAN observation.
	WanLink = simnet.LinkSpec{Capacity: simnet.Gbps(10), Latency: 4e-3, PerFlowCap: simnet.Mbps(787)}
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
