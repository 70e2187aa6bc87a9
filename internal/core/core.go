// Package core implements the paper's primary contribution: two-phase
// bandwidth tomography for multiple-source/multiple-destination
// communication.
//
// Phase 1 (measurement): run n synchronized, instrumented BitTorrent
// broadcasts and aggregate the per-edge fragment counts into the metric
// w(e) of Eq. 2.
//
// Phase 2 (analysis): cluster the weighted measurement graph with Louvain
// modularity optimisation. The clusters are sets of nodes interconnected
// by high bandwidth; cluster boundaries are bandwidth bottlenecks.
//
// The per-iteration records expose the convergence study of Fig. 13: the
// NMI between the clustering found after i iterations and the ground
// truth.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bittorrent"
	"repro/internal/cluster"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/nmi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/substrate"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Options configures a tomography run.
type Options struct {
	// Iterations is the number of BitTorrent broadcasts to aggregate
	// (the paper uses 30-36).
	Iterations int
	// BT is the broadcast configuration; bittorrent.DefaultConfig()
	// reproduces the paper's 239 MB / 16 KiB setup.
	BT bittorrent.Config
	// Seed drives all protocol randomness. Fixed seed = identical run.
	Seed int64
	// RotateRoot cycles the broadcast root across nodes, the mitigation
	// §II-C suggests for root-locality bias. The paper's main
	// experiments use a fixed root (false).
	RotateRoot bool
	// TopFraction, if in (0,1), keeps only the strongest fraction of
	// measured edges before clustering. 0 or 1 keeps everything. (The
	// paper filters only for visualisation, so the default keeps all.)
	TopFraction float64
	// ClusterEvery controls how often the per-iteration clustering and
	// NMI are computed: after every k-th iteration (1 = every iteration,
	// 0 = only at the end). Fig. 13 needs 1.
	ClusterEvery int
	// Window, when positive, aggregates only the most recent Window
	// iterations instead of all of them (a sliding-window variant of
	// Eq. 2). On networks whose topology changes over time — overlays,
	// virtual machines (§V) — the window lets the clustering track the
	// current state instead of averaging over stale history. 0 keeps the
	// paper's cumulative aggregation.
	Window int
	// Dynamics, when non-empty, is the compiled network-dynamics
	// timeline replayed on every measurement iteration: link capacity
	// drift, link failures/recoveries, timed cross-traffic bursts, and
	// host churn (iterations measure only the hosts active in them, and
	// NMI is scored against the active hosts). The timeline must have
	// been compiled against this run's network and host order —
	// RunDataset wires a scenario spec's timeline automatically.
	Dynamics *dynamics.Timeline
	// Workers is the size of the pool the measurement iterations run on;
	// 0 means 1. Every iteration draws from its own deterministic RNG
	// stream and measures on a private engine+network replica
	// (simnet.Network.Clone, Reset), and the per-iteration fragment counts
	// are merged in iteration order, so the result is bit-identical for
	// any worker count.
	Workers int
	// Backend selects the measurement substrate executing the broadcast
	// iterations: "sim" (default; the discrete-event simulator on
	// one replica per worker) or "wire" (real BitTorrent swarms over
	// loopback TCP, paced to the scenario's bottleneck capacities). The
	// empty string means "sim". Validate rejects a name
	// substrate.Check does not know and a Dynamics timeline the backend
	// cannot replay — "wire" cannot.
	Backend string
	// Trace, when non-nil, receives the run's phase spans (per-iteration
	// measure/clone, merge, cluster, NMI) for structured trace output.
	// Telemetry is observability only: it never influences the
	// measurement, and no trace state enters results, archives or
	// campaign content hashes. When nil, Run records into a private
	// tracer so Result.Phases is populated either way.
	Trace *telemetry.Tracer
	// DiscardBroadcasts does nothing: a Result keeps no broadcast. It
	// remains only so that callers which set it still compile.
	DiscardBroadcasts bool
}

// DefaultOptions mirrors the paper's standard setting: 30 iterations of
// the 239 MB broadcast, fixed root, no edge filtering.
func DefaultOptions() Options {
	return Options{
		Iterations:   30,
		BT:           bittorrent.DefaultConfig(),
		Seed:         1,
		ClusterEvery: 1,
	}
}

// Validate checks the option fields for consistency before a run: counts
// must be non-negative, TopFraction must lie in [0,1], and the backend
// must pass substrate.Check: it exists, and it replays a Dynamics
// timeline when the run has one. Run and
// RunDataset call it first, so misconfigurations surface as clear errors
// instead of silent misbehavior; callers assembling options far from the
// run site (CLI flag parsing, experiment configs, spec files) can call it
// early to fail fast. The broadcast configuration (Options.BT) is
// validated separately by the measurement phase, which knows the host
// count.
func (o Options) Validate() error {
	if o.Iterations < 1 {
		return fmt.Errorf("core: need at least 1 iteration, have %d", o.Iterations)
	}
	if !(o.TopFraction >= 0 && o.TopFraction <= 1) {
		return fmt.Errorf("core: TopFraction %g out of [0,1]", o.TopFraction)
	}
	if o.ClusterEvery < 0 {
		return fmt.Errorf("core: negative ClusterEvery %d", o.ClusterEvery)
	}
	if o.Window < 0 {
		return fmt.Errorf("core: negative Window %d", o.Window)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", o.Workers)
	}
	_, err := substrate.Check(o.Backend, o.Dynamics.Len() > 0)
	return err
}

// IterationRecord captures the state after one measurement iteration.
type IterationRecord struct {
	// Iteration is 1-based.
	Iteration int
	// Duration is this iteration's broadcast completion time in simulated
	// seconds (bittorrent.Result.Duration).
	Duration float64
	// Flows is the number of connection transfers the broadcast made
	// (bittorrent.Result.Flows).
	Flows uint64
	// Partition is the clustering of the aggregated metric after this
	// iteration (empty if skipped by ClusterEvery).
	Partition cluster.Partition
	// Q is the modularity of Partition.
	Q float64
	// NMI is the LFK NMI of Partition against the ground truth; NaN if
	// no truth was supplied or clustering was skipped. When the run has
	// a Dynamics timeline with churn, the score is restricted to the
	// hosts active in this iteration.
	NMI float64
	// Clustered records whether clustering ran for this iteration.
	Clustered bool
	// ActiveHosts lists the dense host indices that participated in this
	// iteration's broadcast, ascending; nil when every host did. Only a
	// Dynamics timeline with churn produces subsets. The slice is shared
	// with the run's internal schedule — treat it as read-only.
	ActiveHosts []int
}

// Result is the output of a tomography run.
type Result struct {
	// Graph is the aggregated measurement graph: edge weights are the
	// mean exchanged fragments per iteration, w(e) of Eq. 2.
	Graph *graph.Graph
	// Partition is the final clustering.
	Partition cluster.Partition
	// Q is its modularity.
	Q float64
	// NMI is the final LFK NMI against the ground truth (NaN without a
	// truth).
	NMI float64
	// Iterations holds per-iteration records (Fig. 13 data).
	Iterations []IterationRecord
	// TotalMeasurementTime is the summed simulated duration of all
	// broadcasts — the cost of the measurement phase.
	TotalMeasurementTime float64
	// Phases is the run's real (wall-clock) cost broken down by pipeline
	// phase. Observability only: excluded from archives and from every
	// byte comparison, and varies run to run even when the measurement
	// bytes are identical.
	Phases PhaseTimings
}

// Run performs tomography over hosts on an existing simulated network.
// truth is the ground-truth partition labels (nil to skip NMI scoring).
//
// Every iteration is measured through the run's substrate (see
// Options.Backend) on a pool of opts.Workers workers; the sim substrate
// gives each iteration a private replica of net, which must be idle and
// is left untouched. A non-empty opts.Dynamics timeline is replayed on
// every replica; see Options.Dynamics.
func Run(net *simnet.Network, hosts []int, truth []int, opts Options) (*Result, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 hosts, have %d", n)
	}
	if truth != nil && len(truth) != n {
		return nil, fmt.Errorf("core: truth has %d labels for %d hosts", len(truth), n)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	if opts.Trace == nil {
		opts.Trace = telemetry.NewTracer()
	}
	traceMark := opts.Trace.Mark()
	wallStart := time.Now()
	rng := sim.NewRNG(opts.Seed)
	plans, err := planIterations(opts.Dynamics, hosts, opts)
	if err != nil {
		return nil, err
	}
	sub, err := substrate.New(opts.Backend, substrate.Env{
		Net:      net,
		Hosts:    hosts,
		Timeline: opts.Dynamics,
		Workers:  opts.Workers,
		Trace:    opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	m := newMerger(net, hosts, truth, opts, rng, plans)
	if err := measure(sub, hosts, opts, rng, m, plans); err != nil {
		return nil, err
	}
	m.res.Phases = phaseTimings(opts.Trace, traceMark, time.Since(wallStart))
	return m.res, nil
}

// broadcastConfig derives iteration it's broadcast configuration from the
// shared options, rotating the root when requested.
func broadcastConfig(opts Options, it, n int) bittorrent.Config {
	cfg := opts.BT
	if opts.RotateRoot {
		cfg.Root = (it - 1) % n
	}
	return cfg
}

// iterPlan is one iteration's share of a dynamics timeline: which hosts
// broadcast, and their dense indices in the run's full host list.
type iterPlan struct {
	hosts  []int // vertex ids to broadcast over
	active []int // dense indices into the run's host list; nil = all
}

// planIterations precomputes the per-iteration host sets of a dynamics
// timeline (nil when there is no timeline). The plan is read-only during
// the run and shared by all workers; with churn, broadcast roots
// (Options.BT.Root, RotateRoot) index into the iteration's *active* host
// list, so the root never names a departed host — but a fixed root must
// fit the smallest active set, which is rejected here up front rather
// than failing mid-run.
func planIterations(tl *dynamics.Timeline, hosts []int, opts Options) ([]iterPlan, error) {
	if tl.Len() == 0 {
		return nil, nil
	}
	if tl.NumHosts() != len(hosts) {
		return nil, fmt.Errorf("core: dynamics timeline was compiled for %d hosts, run has %d",
			tl.NumHosts(), len(hosts))
	}
	plans := make([]iterPlan, opts.Iterations+1)
	for it := 1; it <= opts.Iterations; it++ {
		active := tl.ActiveHosts(it)
		if active == nil {
			plans[it] = iterPlan{hosts: hosts}
			continue
		}
		sub := make([]int, len(active))
		for j, a := range active {
			sub[j] = hosts[a]
		}
		if !opts.RotateRoot && opts.BT.Root >= len(sub) {
			return nil, fmt.Errorf("core: broadcast root %d out of range for iteration %d, whose churned swarm has only %d hosts (the root indexes the active host list)",
				opts.BT.Root, it, len(sub))
		}
		plans[it] = iterPlan{hosts: sub, active: active}
	}
	return plans, nil
}

// measure fans the measurement iterations out over a pool of
// opts.Workers workers, each measuring through the run's substrate (the
// sim substrate replicates the network per worker; the wire substrate
// runs a real loopback swarm), and merges the broadcasts in iteration
// order. On error it stops handing out new iterations, cancels the
// in-flight ones, drains them, and reports the error of the
// lowest-numbered failed iteration (so the reported failure does not
// depend on goroutine scheduling).
func measure(sub substrate.Substrate, hosts []int, opts Options, rng *sim.RNG, m *merger, plans []iterPlan) error {
	workers := opts.Workers
	if workers > opts.Iterations {
		workers = opts.Iterations
	}

	type outcome struct {
		it   int
		bres *bittorrent.Result
		err  error
	}
	tasks := make(chan int)
	results := make(chan outcome, workers)
	stop := make(chan struct{})
	// ctx lets a substrate holding real resources (sockets, deadlines)
	// abandon in-flight measurements as soon as one iteration fails.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// credits bounds the run-ahead: at most maxAhead iterations may be
	// in flight or completed-but-unmerged at once, so one stalled worker
	// cannot make the reorder buffer hold O(Iterations) broadcast results.
	// maxAhead > workers, so the iteration the merge is waiting on always
	// has a worker; no deadlock.
	maxAhead := 2 * workers
	credits := make(chan struct{}, maxAhead)
	for i := 0; i < maxAhead; i++ {
		credits <- struct{}{}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range tasks {
				iterHosts := hosts
				if plans != nil {
					iterHosts = plans[it].hosts
				}
				sp := opts.Trace.StartIter("measure", it)
				bres, err := sub.Measure(ctx, substrate.Request{
					Iter:   it,
					Hosts:  iterHosts,
					Config: broadcastConfig(opts, it, len(iterHosts)),
					RNG:    rng.Streamf("broadcast", it),
				})
				secs := sp.End()
				if err == nil {
					mIterations.Inc()
					mMeasureSeconds.Add(secs)
					mIterationSeconds.Observe(secs)
				}
				results <- outcome{it: it, bres: bres, err: err}
			}
		}()
	}
	go func() {
		defer close(tasks)
		for it := 1; it <= opts.Iterations; it++ {
			select {
			case <-credits:
			case <-stop:
				return
			}
			select {
			case tasks <- it:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: merge strictly in iteration order as results land.
	pending := make(map[int]*bittorrent.Result, workers)
	next := 1
	var firstErr error
	errIt := 0
	for out := range results {
		if out.err != nil {
			if firstErr == nil {
				close(stop)
				cancel()
			}
			if firstErr == nil || out.it < errIt {
				firstErr, errIt = out.err, out.it
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		pending[out.it] = out.bres
		for {
			bres, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			m.add(next, bres)
			next++
			credits <- struct{}{} // merged: let the feeder run ahead again
		}
	}
	if firstErr != nil {
		return fmt.Errorf("core: iteration %d: %w", errIt, firstErr)
	}
	return nil
}

// merger folds per-iteration broadcast results — in iteration order — into
// the cumulative fragment counts, the sliding window, the per-iteration
// clustering and the final Result. Merging in iteration order is what
// makes the output independent of the worker count.
type merger struct {
	opts  Options
	truth []int
	rng   *sim.RNG
	// plans is the per-iteration dynamics schedule (nil without one);
	// with churn it maps each broadcast's dense indices back to the
	// run's full host list.
	plans []iterPlan
	// counts accumulates exchanged fragments (the numerator of Eq. 2).
	counts *graph.Graph
	// mean is Eq. 2 over counts, rebuilt in place at every clustering;
	// the last rebuild becomes Result.Graph.
	mean *graph.Graph
	// window is a ring of the last Window broadcasts, the only ones the
	// run keeps: retirement subtracts them again.
	window []measured
	// room is reserve's per-row count of the neighbours a broadcast
	// brings, then the rows' new capacities.
	room []int
	res  *Result
}

// measured pairs a broadcast with the active-host mapping it ran under,
// so windowed retirement subtracts the same edges addition added.
type measured struct {
	bres   *bittorrent.Result
	active []int
}

func newMerger(net *simnet.Network, hosts, truth []int, opts Options, rng *sim.RNG, plans []iterPlan) *merger {
	counts := graph.New(len(hosts))
	for i, h := range hosts {
		counts.SetLabel(i, net.Name(h))
	}
	m := &merger{opts: opts, truth: truth, rng: rng, plans: plans, counts: counts, res: &Result{}}
	if opts.Window > 0 {
		m.window = make([]measured, opts.Window)
	}
	return m
}

// add merges iteration it. Calls must arrive with it = 1, 2, 3, ...
func (m *merger) add(it int, bres *bittorrent.Result) {
	var active []int
	if m.plans != nil {
		active = m.plans[it].active
	}
	sp := m.opts.Trace.StartIter("merge", it)
	m.res.TotalMeasurementTime += bres.Duration
	m.applyCounts(bres, active, 1)
	if m.opts.Window > 0 {
		// Sliding window: retire the iteration that fell out. Iteration
		// it-Window lives in the very slot iteration it is about to take.
		slot := (it - 1) % m.opts.Window
		if it > m.opts.Window {
			old := m.window[slot]
			m.applyCounts(old.bres, old.active, -1)
		}
		m.window[slot] = measured{bres: bres, active: active}
	}
	mMergeSeconds.Add(sp.End())
	rec := IterationRecord{Iteration: it, Duration: bres.Duration, Flows: bres.Flows, NMI: nan(), ActiveHosts: active}
	clusterNow := it == m.opts.Iterations ||
		(m.opts.ClusterEvery > 0 && it%m.opts.ClusterEvery == 0)
	if clusterNow {
		window := it
		if m.opts.Window > 0 && m.opts.Window < it {
			window = m.opts.Window
		}
		csp := m.opts.Trace.StartIter("cluster", it)
		m.mean = m.counts.ScaleInto(m.mean, 1/float64(window))
		mean := m.mean
		if f := m.opts.TopFraction; f > 0 && f < 1 {
			mean = mean.TopFraction(f)
		}
		lou := cluster.Louvain(mean, m.rng.Streamf("louvain", it))
		mClusterSeconds.Add(csp.End())
		rec.Partition = lou.Partition
		rec.Q = lou.Q
		rec.Clustered = true
		if m.truth != nil {
			nsp := m.opts.Trace.StartIter("nmi", it)
			rec.NMI = scoreNMI(m.truth, lou.Partition.Labels, active)
			mNMISeconds.Add(nsp.End())
		}
		if it == m.opts.Iterations {
			m.res.Graph = mean
			m.res.Partition = lou.Partition
			m.res.Q = lou.Q
			m.res.NMI = rec.NMI
		}
	}
	m.res.Iterations = append(m.res.Iterations, rec)
}

// applyCounts adds (sign=+1) or retires (sign=-1) one broadcast's fragment
// counts. active maps the broadcast's dense indices back to the run's
// host indices (nil = identity: every host participated); it ascends, so
// the pairs reach the graph in (a, b) order either way.
func (m *merger) applyCounts(bres *bittorrent.Result, active []int, sign float64) {
	if sign > 0 {
		m.reserve(bres, active)
	}
	for _, p := range bres.Pairs {
		a, b := int(p.A), int(p.B)
		if active != nil {
			a, b = active[a], active[b]
		}
		m.counts.AddWeight(a, b, sign*float64(int(p.AB)+int(p.BA)))
	}
}

// reserve makes room in the counts' rows for the neighbours a broadcast's
// pairs are about to add, so that adding them grows no row: the rows that
// would overflow grow together, in one graph.Reserve slab, to twice what
// they need and never past the vertex count. Retirement only ever shrinks
// rows, so it needs none.
func (m *merger) reserve(bres *bittorrent.Result, active []int) {
	n := m.counts.N()
	if m.room == nil {
		m.room = make([]int, n)
	}
	room := m.room
	clear(room)
	for _, p := range bres.Pairs {
		a, b := int(p.A), int(p.B)
		if active != nil {
			a, b = active[a], active[b]
		}
		if int(p.AB)+int(p.BA) != 0 && m.counts.Weight(a, b) == 0 {
			room[a]++
			room[b]++
		}
	}
	grow := false
	for v, k := range room {
		if k == 0 {
			continue
		}
		row := m.counts.SortedNeighbors(v)
		if need := len(row) + k; need > cap(row) {
			room[v] = min(2*need, n)
			grow = true
		} else {
			room[v] = 0
		}
	}
	if grow {
		m.counts.Reserve(room)
	}
}

// scoreNMI scores found against truth, restricted to the active host
// indices when churn removed hosts from the measured iteration: a host
// that is not part of the swarm cannot be asked for, and must not dilute,
// the clustering answer.
func scoreNMI(truth, found, active []int) float64 {
	if active == nil {
		return nmi.LFKPartition(truth, found)
	}
	ts := make([]int, len(active))
	fs := make([]int, len(active))
	for i, a := range active {
		ts[i], fs[i] = truth[a], found[a]
	}
	return nmi.LFKPartition(ts, fs)
}

// RunDataset runs tomography on a topology.Dataset against its ground
// truth. A dataset compiled from a scenario spec with a Dynamics section
// carries its timeline (Dataset.Timeline); unless opts.Dynamics is
// already set, the dataset's timeline is replayed automatically.
func RunDataset(d *topology.Dataset, opts Options) (*Result, error) {
	if opts.Dynamics == nil {
		opts.Dynamics = d.Timeline
	}
	return Run(d.Net, d.Hosts, d.GroundTruth, opts)
}

func nan() float64 { return math.NaN() }
