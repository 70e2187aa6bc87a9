package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bittorrent"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/substrate"
	"repro/internal/topology"
)

// tomoSize fixes everything a tomo-* repetition computes.
type tomoSize struct {
	spec       func() (*scenario.Spec, error)
	iterations int
	scale      float64
	discard    bool
	// wire adds the wire-layer microbenchmarks to the traced run; they
	// belong to no workload, so the reference run carries them.
	wire bool
}

// modelSeed seeds the model inputs of the tomo-* workloads (the protocol
// seed) and of analyze-1k (graph weights, Louvain order). It is part of
// the workload definition, like the iteration count, and deliberately
// not taken from -seed: one broadcast's cost swings about 10% with the
// protocol seed (measured), far more than ten seconds of repetitions
// can average out, and fixed model inputs let expected.json pin the
// result digest for every -seed. The archive serve-archive1k builds is
// the seed-varying view of the same simulator (500 protocol seeds per
// run, shifted by -seed).
const modelSeed = 1

func registrySpec(name string) func() (*scenario.Spec, error) {
	return func() (*scenario.Spec, error) {
		s, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("scenario %q is not registered", name)
		}
		return s, nil
	}
}

func generated(s *scenario.Spec) func() (*scenario.Spec, error) {
	return func() (*scenario.Spec, error) { return s, nil }
}

func tomoSizeOf(name string, cfg config) tomoSize {
	if cfg.toy {
		toy := tomoSize{spec: generated(scenario.NSites(2, 4, 890, 100)), iterations: 2, scale: 0.01}
		switch name {
		case wBGTL:
			toy.wire = true
		case wFatTree:
			toy.discard = true
		case wDrift:
			toy.spec = generated(scenario.DriftSites(2, 4, 890, 100, 0.5))
			toy.iterations = 4
		}
		return toy
	}
	switch name {
	case wFatTree:
		return tomoSize{spec: generated(scenario.FatTree(4, 4, 16, 890, 2000, 300)), iterations: 2, scale: 0.05, discard: true}
	case wDrift:
		return tomoSize{spec: generated(scenario.DriftSites(6, 16, 890, 100, 0.5)), iterations: 8, scale: 0.05}
	}
	return tomoSize{spec: registrySpec("BGTL"), iterations: 8, scale: 0.05, wire: true}
}

type tomo struct {
	name string
	cfg  config
	size tomoSize

	spec *scenario.Spec
	data *topology.Dataset
	opts core.Options

	last   *core.Result
	oracle oracle
}

func newTomo(name string, cfg config) *tomo {
	return &tomo{name: name, cfg: cfg, size: tomoSizeOf(name, cfg), oracle: newOracle(name, cfg)}
}

func (t *tomo) setup() error {
	spec, err := t.size.spec()
	if err != nil {
		return err
	}
	data, err := spec.Compile()
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Seed = modelSeed
	opts.Iterations = t.size.iterations
	// One worker on every workload: two on the sandbox's two shared vCPUs
	// spread a rep's wall and CPU time 25-30% between runs of the same
	// code, because whenever the host takes a core away the pool measures
	// the scheduler. One worker still takes the replica path (a Clone and
	// a timeline Apply per iteration).
	opts.Workers = 1
	opts.ClusterEvery = 1
	opts.DiscardBroadcasts = t.size.discard
	opts.BT.FileBytes = max(int(float64(opts.BT.FileBytes)*t.size.scale), opts.BT.FragmentSize)
	t.spec, t.data, t.opts = spec, data, opts
	return nil
}

func (t *tomo) rep(tr *tracer, parent *span) error {
	sp := tr.start(parent, "core.run", 0)
	res, err := core.RunDataset(t.data, t.opts)
	sp.end()
	t.last = res
	return err
}

func (t *tomo) check(*tracer, *span) (int, int, error) {
	return 1, t.oracle.mismatch(resultDigest(t.last)), nil
}

func (t *tomo) close() {}

// resultDigest is the SHA-256 of everything a tomography run decides:
// the measurement graph's sorted edges, the partition labels, NMI, Q and
// the simulated measurement time, all at full float precision.
func resultDigest(r *core.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) {
		if math.IsNaN(f) {
			f = math.NaN() // one bit pattern for every NaN
		}
		put(math.Float64bits(f))
	}
	put(uint64(r.Graph.N()))
	for _, e := range r.Graph.Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
		putF(e.Weight)
	}
	for _, l := range r.Partition.Labels {
		put(uint64(l))
	}
	putF(r.NMI)
	putF(r.Q)
	putF(r.TotalMeasurementTime)
	return hex.EncodeToString(h.Sum(nil))
}

// layers drives the measurement iterations itself, because core.Run on
// the replica path hides the engine: each iteration goes once through
// the sim substrate (what core pays) and once as a bare RunBroadcast on
// the benchmark's own engine+network, whose Fired()/Solves() deltas and
// duration are the sim/simnet/bittorrent numbers. The difference of the
// two is the substrate's own cost.
func (t *tomo) layers(tr *tracer, lv layerValues) error {
	compile, err := timeN(5, func() error { _, err := t.spec.Compile(); return err })
	if err != nil {
		return err
	}
	lv["scenario.compile_ms"] = compile * 1e3

	root := tr.start(nil, "layers", 0)
	defer root.end()

	tl := t.data.Timeline
	sub, err := substrate.New("sim", substrate.Env{
		Net: t.data.Net, Hosts: t.data.Hosts, Timeline: tl, Seed: t.opts.Seed, Workers: 1,
	})
	if err != nil {
		return err
	}
	defer sub.Close()
	rng := sim.NewRNG(t.opts.Seed)
	var simSeconds float64
	for it := 1; it <= t.opts.Iterations; it++ {
		hosts := t.data.Hosts
		if active := tl.ActiveHosts(it); active != nil {
			hosts = make([]int, len(active))
			for i, a := range active {
				hosts[i] = t.data.Hosts[a]
			}
		}
		sp := tr.start(root, "substrate.measure", 0)
		_, err := sub.Measure(context.Background(), substrate.Request{
			Iter: it, Hosts: hosts, Config: t.opts.BT, RNG: rng.Streamf("broadcast", it),
		})
		sp.end()
		if err != nil {
			return fmt.Errorf("substrate iteration %d: %w", it, err)
		}

		eng := sim.NewEngine()
		net := t.data.Net.Clone(eng)
		if tl.Len() > 0 {
			sp := tr.start(root, "dynamics.apply", 0)
			tl.Apply(it, eng, net)
			sp.end()
		}
		fired, solves := eng.Fired(), net.Solves()
		sp = tr.start(root, "bittorrent.broadcast", 0)
		bres, err := bittorrent.RunBroadcast(eng, net, hosts, t.opts.BT, rng.Streamf("broadcast", it))
		sp.end()
		if err != nil {
			return fmt.Errorf("bare broadcast %d: %w", it, err)
		}
		tr.count("sim.events", float64(eng.Fired()-fired))
		tr.count("simnet.solves", float64(net.Solves()-solves))
		tr.count("bittorrent.fragments", float64(bres.TotalFragments()))
		simSeconds += bres.Duration
	}
	iters := float64(t.opts.Iterations)
	broadcast := tr.total("bittorrent.broadcast")
	lv["sim.events"] = tr.counter("sim.events")
	lv["sim.events_per_s"] = tr.counter("sim.events") / broadcast
	lv["simnet.solves"] = tr.counter("simnet.solves")
	lv["bittorrent.broadcast_s"] = broadcast / iters
	lv["bittorrent.fragments"] = tr.counter("bittorrent.fragments")
	lv["bittorrent.frag_per_s"] = tr.counter("bittorrent.fragments") / broadcast
	lv["bittorrent.sim_s_per_broadcast"] = simSeconds / iters
	lv["substrate.measure_s"] = tr.total("substrate.measure")
	lv["substrate.overhead_s"] = tr.total("substrate.measure") - broadcast
	lv["dynamics.events"] = float64(tl.Len())
	if tl.Len() > 0 {
		lv["dynamics.apply_us"] = tr.total("dynamics.apply") / iters * 1e6
	}

	// The worker pool, ungated: one repetition at min(nproc, 4) workers,
	// which must decide exactly what the sequential ones did.
	if t.name == wDrift {
		opts := t.opts
		opts.Workers = min(t.cfg.nproc, 4)
		sp := tr.start(root, "core.run.parallel", 0)
		start := time.Now()
		par, err := core.RunDataset(t.data, opts)
		lv["core.parallel_wall_s"] = time.Since(start).Seconds()
		sp.end()
		if err != nil {
			return err
		}
		if got, want := resultDigest(par), resultDigest(t.last); got != want {
			return fmt.Errorf("%d workers decided %s, one worker %s", opts.Workers, got, want)
		}
	}
	phases := t.last.Phases
	lv["core.measure_s"] = phases.MeasureSeconds
	lv["core.clone_s"] = phases.CloneSeconds
	lv["core.merge_s"] = phases.MergeSeconds
	lv["core.cluster_s"] = phases.ClusterSeconds
	lv["core.nmi_s"] = phases.NMISeconds
	lv["cluster.clusters"] = float64(t.last.Partition.NumClusters())
	lv["nmi"] = t.last.NMI
	lv["sim_seconds"] = t.last.TotalMeasurementTime

	simEngineLayer(tr, root, lv, t.cfg)
	simnetLayer(tr, root, lv, t.data, t.cfg)
	telemetryLayer(lv, t.cfg)
	if t.size.wire {
		return wireLayer(tr, root, lv, t.cfg)
	}
	return nil
}

// simEngineLayer times a standalone event chain: 4096 events pending at
// all times, each rescheduling itself at a random delay until the
// budget of fired events is spent.
func simEngineLayer(tr *tracer, parent *span, lv layerValues, cfg config) {
	budget := 1_000_000
	if cfg.toy {
		budget = 20_000
	}
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(cfg.seed))
	left := budget
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			eng.Schedule(rng.Float64(), tick)
		}
	}
	for i := 0; i < 4096; i++ {
		eng.Schedule(rng.Float64(), tick)
	}
	sp := tr.start(parent, "sim.chain", 0)
	start := time.Now()
	eng.Run()
	elapsed := time.Since(start)
	sp.end()
	lv["sim.event_ns"] = float64(elapsed.Nanoseconds()) / float64(eng.Fired())
}

// simnetLayer measures the solver at fixed numbers of concurrent flows
// on the workload's own network, the cost of a replica and the cost of
// the first route lookups on one.
func simnetLayer(tr *tracer, parent *span, lv layerValues, data *topology.Dataset, cfg config) {
	rng := rand.New(rand.NewSource(cfg.seed))
	hosts := data.Hosts
	pair := func() (int, int) {
		a := rng.Intn(len(hosts))
		b := rng.Intn(len(hosts) - 1)
		if b >= a {
			b++
		}
		return hosts[a], hosts[b]
	}
	for _, level := range []struct {
		metric string
		flows  int
	}{{"simnet.solve_us.f64", 64}, {"simnet.solve_us.f512", 512}, {"simnet.solve_us.f2048", 2048}} {
		churn := 400
		if cfg.toy {
			churn = 20
		}
		eng := sim.NewEngine()
		net := data.Net.Clone(eng)
		// Flows far too large to finish: the set of concurrent flows
		// only changes when the churn below cancels and starts one.
		const size = 1e18
		flows := make([]*simnet.Flow, level.flows)
		for i := range flows {
			a, b := pair()
			flows[i] = net.StartFlow(a, b, size, nil)
		}
		eng.RunUntil(eng.Now() + 1)
		solves := net.Solves()
		sp := tr.start(parent, level.metric, 0)
		start := time.Now()
		for i := 0; i < churn && time.Since(start) < 500*time.Millisecond; i++ {
			k := rng.Intn(len(flows))
			net.CancelFlow(flows[k])
			a, b := pair()
			flows[k] = net.StartFlow(a, b, size, nil)
			eng.RunUntil(eng.Now() + 1)
		}
		elapsed := time.Since(start)
		sp.end()
		if n := net.Solves() - solves; n > 0 {
			lv[level.metric] = elapsed.Seconds() * 1e6 / float64(n)
		}
	}

	clone, _ := timeN(20, func() error { data.Net.Clone(sim.NewEngine()); return nil })
	lv["simnet.clone_us"] = clone * 1e6

	fresh := data.Net.Clone(sim.NewEngine())
	sp := tr.start(parent, "simnet.path_cold", 0)
	start := time.Now()
	for i, src := range hosts {
		fresh.Path(src, hosts[(i+1)%len(hosts)])
	}
	elapsed := time.Since(start)
	sp.end()
	lv["simnet.path_cold_us"] = elapsed.Seconds() * 1e6 / float64(len(hosts))
}
