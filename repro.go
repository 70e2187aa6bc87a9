// Package repro is a Go reproduction of "Efficient and reliable network
// tomography in heterogeneous networks using BitTorrent broadcasts and
// clustering algorithms" (Dichev, Reid, Lastovetsky — SC 2012,
// arXiv:1205.1457).
//
// The method reconstructs the logical bandwidth clustering of a network —
// which nodes are interconnected by high bandwidth, and where the
// bottlenecks lie — from application-level measurements only:
//
//  1. Measurement: run a few synchronized, instrumented BitTorrent
//     broadcasts of a large file and count, per node pair, the fragments
//     exchanged. Data naturally prefers fast links, so the aggregated
//     count w(e) is a bandwidth-correlated edge weight obtainable in
//     roughly constant time regardless of the node count.
//  2. Analysis: cluster the weighted measurement graph with Louvain
//     modularity maximisation. Clusters are logical bandwidth clusters;
//     cluster boundaries are bottlenecks.
//
// Because the original experiments ran on the Grid'5000 testbed, this
// repository ships a discrete-event fluid network simulator together with
// models of the paper's topologies. The same public API runs tomography on
// any simulated network.
//
// # Quick start
//
//	dataset, _ := repro.NewDataset("GT") // Grenoble+Toulouse, 64 nodes
//	res, err := repro.Run(dataset, repro.DefaultOptions())
//	if err != nil { ... }
//	fmt.Println(res.Partition)  // two clusters, one per site
//	fmt.Println(res.NMI)        // 1.0 against the ground truth
//
// # Parallel measurement
//
// Iterations draw from independent deterministic RNG streams and each
// measures on its own simulator replica, so they are embarrassingly
// parallel. Options.Workers sets the pool size; per-iteration counts
// merge in iteration order, making the result bit-identical for every
// worker count:
//
//	opts := repro.DefaultOptions().WithWorkers(4)
//	res, err := repro.Run(dataset, opts)
//
// # Measurement backends
//
// The measurement phase is pluggable (internal/substrate): the default
// "sim" backend replays broadcasts on the discrete-event simulator, and
// the "wire" backend runs each iteration as a real BitTorrent swarm over
// loopback TCP, pacing each peer pair at the scenario topology's path
// bandwidth. Both feed the same merger, clustering and scoring:
//
//	opts := repro.DefaultOptions().WithBackend("wire").WithIterations(3)
//	res, err := repro.Run(dataset, opts)
//
// Backends() lists the two; wire results are reproducible in
// distribution, not byte-for-byte, and wire cannot replay Dynamics
// timelines (Options.Validate rejects the combination).
//
// # Custom scenarios
//
// The method is topology-agnostic, and so is the API: a scenario is data,
// not code. A Spec declares link classes, the switch fabric, host groups
// and the ground-truth clustering; it can be assembled with the fluent
// Builder (NewSpec), generated for a synthetic family (NSitesSpec,
// FatTreeSpec, SkewedSitesSpec), or loaded from a JSON file (LoadSpec).
// RunSpec compiles and measures it in one call, and RegisterSpec adds it
// to the same registry the built-in datasets live in, so NewDataset and
// the CLIs (`bttomo -dataset`, `bttomo -list`) see it:
//
//	spec, err := repro.NewSpec("twin").
//		Link("eth", 890, 50e-6).
//		Link("wan", 1000, 4e-3).
//		Switch("core").
//		FlatSite("left", "core", 16, "eth", "wan").
//		FlatSite("right", "core", 16, "eth", "wan").
//		Spec()
//	res, err := repro.RunSpec(spec, repro.DefaultOptions().WithWorkers(4))
//
// # Time-varying scenarios
//
// A spec's optional Dynamics section scripts how the network changes
// while the measurement runs — link capacity drift, failures and
// recoveries, host churn, timed cross-traffic bursts — the
// "dynamically altering underlying topology" the paper's §V points at.
// Events are declarative data, validated with the spec and replayed
// deterministically on every measurement replica, so dynamic scenarios
// keep the bit-identity contract for any worker count:
//
//	spec, err := repro.NewSpec("erode").
//		Link("eth", 890, 50e-6).
//		Link("wan", 60, 4e-3).
//		Switch("core").
//		FlatSite("left", "core", 6, "eth", "wan").
//		FlatSite("right", "core", 6, "eth", "wan").
//		LinkScale(3, "wan", 40).    // the bottleneck disappears mid-run
//		HostLeave(3, "right-5").    // a host churns out and back
//		HostJoin(6, "right-5").
//		Burst(4, 1, "left-0", "right-0", 48).
//		Spec()
//
// Iterations measure only the hosts active in them and NMI is scored
// against the hosts present (IterationRecord.ActiveHosts). See the
// ExampleNewSpec_dynamics godoc example, examples/dynamics, and the
// README's "Time-varying scenarios" section.
//
// # Campaigns
//
// A Campaign runs a whole experimental surface as one managed unit: it
// names scenarios (registry names or spec files), lists values for any of
// the option axes campaign.ConfigAxes declares, and expands the
// cross-product into an ordered run list. Runs are sharded over a bounded
// job pool and keyed by a content hash of their inputs; completed runs
// are archived under the output directory and later invocations load
// them instead of recomputing, so a killed campaign resumes with zero
// redone work and a byte-identical aggregate:
//
//	c, err := repro.NewCampaign("sweep").
//		Scenario("GT", "BT").
//		Iterations(10, 30).
//		Seeds(1, 2, 3).
//		Spec()
//	out, err := repro.RunCampaign(c, repro.CampaignOptions{
//		OutDir: "runs/sweep", Jobs: 4, Resume: true,
//	})
//	fmt.Println(out.Table)      // aggregated NMI/Q/time grid
//
// Campaigns also scale out: JoinCampaign (or `cmd/campaign -fleet`) runs
// the process as one worker of a distributed fleet, any number of which
// share an output directory and partition the grid through per-run lease
// files — each run executed exactly once by a live worker, crashed
// workers' claims reclaimed after a TTL, and the final aggregate byte-
// identical to a single-process run (see internal/fleet and the README's
// "Distributed campaigns" section).
//
// A finished (or in-flight) campaign directory is queryable as a typed
// archive: OpenArchive returns a read-only Store over it, ArchiveStatus
// fuses ledger + leases + manifests into live fleet progress, and
// DiffArchives compares two archives for regressions by content key.
// `campaign serve` exposes the same read path over HTTP.
//
// See `cmd/campaign` for the CLI (subcommands run, status, serve, diff,
// gc), examples/campaign and examples/fleet for complete programs, and
// the README's "Campaigns" and "Querying results" sections for the spec
// format, cache layout, resume semantics and the query API.
//
// See the examples/ directory for complete programs and cmd/experiments for
// the harness that regenerates every table and figure of the paper.
package repro

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/scenario"
	"repro/internal/substrate"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Options configures a tomography run; see core.Options for the fields.
type Options = core.Options

// Result is the outcome of a tomography run: the aggregated measurement
// graph, the clustering, its modularity and NMI against ground truth, and
// per-iteration convergence records.
type Result = core.Result

// IterationRecord is one measurement iteration's record within a Result.
type IterationRecord = core.IterationRecord

// PhaseTimings is the per-phase wall-clock breakdown every Result
// carries in Result.Phases: where a run's time went (measure, clone,
// merge, cluster, NMI). Observability only — the timings never enter
// archived documents or content keys.
type PhaseTimings = core.PhaseTimings

// Tracer records phase spans during a run when set on Options.Trace;
// its spans can be serialized as JSONL and aggregated across runs (see
// `campaign run -trace` and `campaign status`). A nil *Tracer is valid
// everywhere and records nothing.
type Tracer = telemetry.Tracer

// NewTracer returns an empty span recorder for Options.Trace.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// Dataset is a simulated network with hosts and a ground-truth logical
// clustering. The built-in datasets model the paper's Grid'5000 settings.
// Dataset.Replicate copies one onto a fresh simulation engine — built on
// the same network-cloning primitive the measurement pipeline uses — for
// running independent sweeps over the same topology.
type Dataset = topology.Dataset

// DefaultOptions mirrors the paper's standard configuration: 30
// iterations of a 239 MB broadcast in 16 KiB fragments, fixed root, one
// measurement worker. Derive variants fluently — each With* method
// returns a modified copy, so a configuration is one expression:
//
//	opts := repro.DefaultOptions().WithWorkers(4).WithIterations(10)
func DefaultOptions() Options { return core.DefaultOptions() }

// Datasets lists the registered scenario names — the six built-ins (2x2,
// B, BT, GT, BGT, BGTL) plus any specs added with RegisterSpec — sorted
// lexicographically, so listings are stable regardless of registration
// order.
func Datasets() []string {
	return scenario.Names()
}

// Backends lists the measurement substrates, sorted: "sim"
// (the discrete-event simulator, the default) and "wire" (real loopback
// TCP swarms speaking the BitTorrent wire protocol). Select one with
// Options.Backend / WithBackend, a campaign's backend axis, or `bttomo
// -backend`. The wire backend measures real sockets, so its results are
// reproducible in distribution but not byte-for-byte; it cannot replay
// Dynamics timelines.
func Backends() []string {
	return substrate.Names()
}

// NewDataset compiles a registered scenario (fresh simulator state). The
// six built-in datasets are themselves spec-backed: "B" compiles the same
// declarative Spec a user could have written by hand.
func NewDataset(name string) (*Dataset, error) {
	spec, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown dataset %q (have %v)", name, Datasets())
	}
	return spec.Compile()
}

// Run performs BitTorrent tomography on a dataset and scores the found
// clustering against the dataset's ground truth.
func Run(d *Dataset, opts Options) (*Result, error) {
	return core.RunDataset(d, opts)
}

// RunNamed is Run on a freshly built named dataset.
func RunNamed(name string, opts Options) (*Result, error) {
	d, err := NewDataset(name)
	if err != nil {
		return nil, err
	}
	return Run(d, opts)
}

// Spec is a declarative measurement scenario: link parameter classes, the
// switch fabric, host groups and the ground-truth logical clustering. It
// serialises to JSON (LoadSpec/SaveSpec), compiles to a Dataset
// (Spec.Compile) and registers into the dataset registry (RegisterSpec).
type Spec = scenario.Spec

// SpecBuilder assembles a Spec fluently; see NewSpec.
type SpecBuilder = scenario.Builder

// NewSpec starts a fluent scenario declaration. Finish the chain with
// Spec(), which returns a validated declarative spec; Spec.Compile turns
// that into a ready-to-measure Dataset, and RunSpec measures it.
func NewSpec(name string) *SpecBuilder { return scenario.NewBuilder(name) }

// RegisterSpec validates the spec and adds it to the dataset registry
// under its name, next to the six built-ins: NewDataset, RunNamed,
// Datasets and the CLIs all see it. Names are unique; registering an
// existing name (including a built-in) is an error.
func RegisterSpec(s *Spec) error { return scenario.Register(s) }

// RunSpec compiles a scenario spec and performs tomography on it — the
// one-call path from a declarative scenario (hand-written, generated or
// file-loaded) to a scored clustering. The spec does not need to be
// registered.
func RunSpec(s *Spec, opts Options) (*Result, error) {
	d, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return Run(d, opts)
}

// NSitesSpec generates the k-site star family: hostsPerSite hosts per
// flat site, intraMbps host links, interMbps uplinks, one ground-truth
// cluster per site.
func NSitesSpec(sites, hostsPerSite int, intraMbps, interMbps float64) *Spec {
	return scenario.NSites(sites, hostsPerSite, intraMbps, interMbps)
}

// FatTreeSpec generates a three-level hierarchical fabric (root, pods,
// leaves) with one ground-truth cluster per pod; choose spineMbps below
// leafMbps so the declared pod boundaries are real bottlenecks.
func FatTreeSpec(pods, leavesPerPod, hostsPerLeaf int, hostMbps, leafMbps, spineMbps float64) *Spec {
	return scenario.FatTree(pods, leavesPerPod, hostsPerLeaf, hostMbps, leafMbps, spineMbps)
}

// SkewedSitesSpec generates a star of sites whose uplink bandwidth decays
// geometrically (site i uplinks at interMbps * decay^i) — a heterogeneous
// variant of the NSites family.
func SkewedSitesSpec(sites, hostsPerSite int, intraMbps, interMbps, decay float64) *Spec {
	return scenario.SkewedSites(sites, hostsPerSite, intraMbps, interMbps, decay)
}

// DynamicsEvent is one scripted change of a time-varying scenario: link
// capacity drift ("link-scale"), failure and recovery ("link-down" /
// "link-up"), host churn ("host-leave" / "host-join") or a timed
// cross-traffic burst ("burst"). A Spec carries them in its Dynamics
// section (JSON) or via the SpecBuilder's LinkScale/LinkDown/LinkUp/
// HostLeave/HostJoin/Burst methods; they are replayed deterministically
// on every measurement replica, so results stay bit-identical for any
// Options.Workers >= 1.
type DynamicsEvent = dynamics.Event

// DynamicsTimeline is a compiled, validated dynamics schedule. A dataset
// compiled from a spec with a Dynamics section carries one
// (Dataset.Timeline), and Run replays it automatically; set
// Options.Dynamics to override.
type DynamicsTimeline = dynamics.Timeline

// DriftSitesSpec generates the churn-heavy, time-varying member of the
// NSites family: as intensity in [0, 1] rises, the site uplinks drift
// toward the aggregate intra-site bandwidth, hosts leave and rejoin the
// swarm, a cross-site burst loads the fabric and (at intensity >= 0.5) a
// site uplink transiently fails. The E17 drift experiment sweeps it.
func DriftSitesSpec(sites, hostsPerSite int, intraMbps, interMbps, intensity float64) *Spec {
	return scenario.DriftSites(sites, hostsPerSite, intraMbps, interMbps, intensity)
}

// Campaign is a declarative sweep: scenarios crossed with option axes,
// expanded deterministically into a content-addressed run grid. Build one
// fluently (NewCampaign), load it from JSON (LoadCampaign) or write the
// JSON by hand; run it with RunCampaign or `cmd/campaign`.
type Campaign = campaign.Spec

// CampaignBuilder assembles a Campaign fluently; see NewCampaign.
type CampaignBuilder = campaign.Builder

// CampaignOptions configures one campaign invocation: the archive
// directory, the job-pool width, and whether archived runs are reused.
type CampaignOptions = campaign.ExecOptions

// CampaignOutcome is a completed invocation: the expanded grid, the
// manifest (per-run key, cache hit/miss, timing), the archived result
// documents and the aggregate table.
type CampaignOutcome = campaign.Outcome

// CampaignRun is one expanded cell of a campaign grid.
type CampaignRun = campaign.Run

// CampaignEntry is one finished cell's manifest record — the unit the
// streamed manifest.log, the CampaignOptions.Report hook and the serve
// /ingest endpoint all exchange.
type CampaignEntry = campaign.Entry

// NewCampaign starts a fluent campaign declaration. Finish the chain with
// Spec(), then execute with RunCampaign.
func NewCampaign(name string) *CampaignBuilder { return campaign.NewBuilder(name) }

// RunCampaign expands and executes a campaign: runs shard across
// opts.Jobs workers (each run keeps the bit-identity contract, so results
// never depend on the fan-out), archived runs load from the
// content-addressed cache under opts.OutDir instead of recomputing, and
// the aggregate NMI/Q/time table is written as campaign.csv and
// summary.txt next to manifest.json. Failed runs are reported after every
// other run has finished; re-invoking resumes exactly the missing work.
func RunCampaign(c *Campaign, opts CampaignOptions) (*CampaignOutcome, error) {
	return campaign.Execute(c, opts)
}

// JoinCampaign runs this process as one worker of a distributed fleet:
// any number of processes (or machines sharing a filesystem) pointed at
// the same opts.OutDir cooperatively execute the campaign. Each run is
// claimed by exactly one live worker through a lease file, a crashed
// worker's claims are reclaimed after opts.LeaseTTL, and whichever
// workers observe the grid complete finalize the aggregate — byte-
// identical to a single-process RunCampaign by the bit-identity
// contract. opts.Owner names this worker (defaults to host-pid); the
// worker's own view is written to manifests/<owner>.json while the
// shared manifest.json records every run with the owner that executed
// it. Equivalent to RunCampaign with opts.Fleet set.
func JoinCampaign(c *Campaign, opts CampaignOptions) (*CampaignOutcome, error) {
	opts.Fleet = true
	return campaign.Execute(c, opts)
}

// LoadCampaign reads and validates a campaign spec from a JSON file.
// Relative scenario-file references resolve against the campaign file's
// directory.
func LoadCampaign(path string) (*Campaign, error) { return campaign.Load(path) }

// HierarchyNode is one cluster of a hierarchical decomposition — the
// multi-level extension sketched in the paper's Future Work (§V).
type HierarchyNode = core.HierarchyNode

// HierarchyOptions tunes the hierarchical decomposition.
type HierarchyOptions = core.HierarchyOptions

// DefaultHierarchyOptions returns the standard hierarchy configuration.
func DefaultHierarchyOptions() HierarchyOptions { return core.DefaultHierarchyOptions() }

// BuildHierarchy decomposes a tomography result's measurement graph into
// multi-level logical clusters: the top level separates sites; deeper
// levels recover intra-site structure (e.g. the Bordeaux sub-clusters the
// flat BT clustering misses, §IV-C).
func BuildHierarchy(res *Result, opts HierarchyOptions) *HierarchyNode {
	return core.Hierarchy(res.Graph, opts)
}

// HierarchicalNMI scores a hierarchy against a flat ground truth using
// all hierarchy levels as an overlapping cover (LFK NMI).
func HierarchicalNMI(truth []int, h *HierarchyNode) float64 {
	return core.HierarchicalNMI(truth, h)
}

// Measurement archival and topology-aware collective scheduling. These
// entry points operate on completed results and are agnostic to how the
// measurement ran: a Result produced with Options.Workers > 1 is
// bit-identical to a sequential one, so archived graphs, bottleneck
// reports and collective schedules never depend on the worker count.

// MeasurementGraph is the aggregated w(e) graph produced by Run (also the
// type of Result.Graph).
type MeasurementGraph = graph.Graph

// SaveMeasurement archives a measurement graph as JSON, so the analysis
// phase can be re-run later without re-measuring (see also
// `bttomo -save/-load`).
func SaveMeasurement(path string, g *MeasurementGraph) error {
	return persist.SaveGraph(path, g)
}

// LoadMeasurement reads an archived measurement graph.
func LoadMeasurement(path string) (*MeasurementGraph, error) {
	return persist.LoadGraph(path)
}

// SaveSpec writes a scenario spec to a JSON file — the declarative
// interchange format for scenarios (`bttomo -spec`, LoadSpec).
func SaveSpec(path string, s *Spec) error {
	return persist.SaveSpec(path, s)
}

// LoadSpec reads and validates a scenario spec from a JSON file. The
// loaded spec can be run directly (RunSpec) or added to the registry
// (RegisterSpec).
func LoadSpec(path string) (*Spec, error) {
	return persist.LoadSpec(path)
}

// Boundary describes the measured traffic across one discovered cluster
// boundary — an explicit bottleneck report.
type Boundary = core.Boundary

// Bottlenecks summarises every cluster boundary of a result: which
// cluster pairs are separated and how starved their cross traffic is
// relative to intra-cluster traffic (the paper's "correctly identified
// communication bottleneck links", §V).
func Bottlenecks(res *Result) []Boundary {
	return core.Bottlenecks(res.Graph, res.Partition)
}

// Schedule is a staged collective-communication plan: stages run
// sequentially, transfers within a stage run concurrently.
type Schedule = collective.Schedule

// Transfer is one point-to-point message within a Schedule stage.
type Transfer = collective.Transfer

// CollectiveResult reports an executed schedule's timing.
type CollectiveResult = collective.Result

// BroadcastBinomial builds the topology-agnostic binomial-tree broadcast
// over the given host order (first entry is the root).
func BroadcastBinomial(order []int) (Schedule, error) {
	return collective.BroadcastBinomial(order)
}

// BroadcastClusterAware builds a hierarchical broadcast over logical
// clusters (e.g. Result.Partition.Clusters()): each inter-cluster
// bottleneck is crossed exactly once.
func BroadcastClusterAware(clusters [][]int, root int) (Schedule, error) {
	return collective.BroadcastClusterAware(clusters, root)
}

// ReduceClusterAware builds the hierarchical reduction dual to
// BroadcastClusterAware.
func ReduceClusterAware(clusters [][]int, root int) (Schedule, error) {
	return collective.ReduceClusterAware(clusters, root)
}

// ExecuteBroadcast validates and runs a broadcast schedule on a dataset's
// network, returning its completion time.
func ExecuteBroadcast(d *Dataset, sched Schedule, root int, bytes float64) (CollectiveResult, error) {
	return collective.ExecuteBroadcast(d.Eng, d.Net, d.Hosts, sched, root, bytes)
}

// ExecuteReduce validates and runs a reduce schedule on a dataset's
// network.
func ExecuteReduce(d *Dataset, sched Schedule, root int, bytes float64) (CollectiveResult, error) {
	return collective.ExecuteReduce(d.Eng, d.Net, d.Hosts, sched, root, bytes)
}

// The archive query surface: the typed read path over a campaign output
// directory (see internal/archive for the full API and its read-path
// invariants). The directory layout is an implementation detail of the
// campaign executor; the Store is the contract.

// Archive is a typed, read-only view of one campaign output directory
// (the -out of RunCampaign / JoinCampaign / `campaign run`). Every
// query re-reads the directory and tolerates concurrent fleet writers:
// torn ledger lines are skipped, mid-rename documents read as
// not-yet-archived, and no query ever double-counts an idempotent
// re-execution. Beyond the methods re-documented here it offers
// Runs, Get, Marginals, Stamp and GC — see internal/archive.
type Archive = archive.Store

// CampaignStatus is the fused live view of a campaign directory —
// ledger + leases + per-owner manifests — as returned by
// Archive.Status / ArchiveStatus and served by `campaign serve` at
// /status.
type CampaignStatus = archive.Status

// ArchiveDiff is the regression report comparing two archives by
// content key, as returned by Archive.Diff and `campaign diff`.
// Zero RegressionCount means every shared measurement reproduced
// bit-identically.
type ArchiveDiff = archive.DiffReport

// ArchiveMarginal is one axis's marginal curve over a campaign's
// completed cells, as returned by Archive.Marginals.
type ArchiveMarginal = archive.Marginal

// OpenArchive opens the campaign archive rooted at dir. The directory
// must exist but may be mid-campaign: a Store over a directory a fleet
// is still writing answers queries about the progress so far.
func OpenArchive(dir string) (*Archive, error) {
	return archive.Open(dir)
}

// ArchiveStatus opens dir and reports its live status in one call —
// the programmatic equivalent of `campaign status -out dir`.
func ArchiveStatus(dir string) (*CampaignStatus, error) {
	st, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	return st.Status()
}

// DiffArchives compares the archive at dir against the baseline at
// base — the programmatic equivalent of `campaign diff -out dir -base
// base`. Shared content keys must hold byte-identical documents (the
// bit-identity contract); any divergence is reported as a regression.
func DiffArchives(dir, base string) (*ArchiveDiff, error) {
	st, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	return st.Diff(base)
}
