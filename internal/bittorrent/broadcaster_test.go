package bittorrent_test

// Tests of a Broadcaster's storage reuse on compiled scenarios. They live
// outside package bittorrent because scenario imports core, which imports
// bittorrent through substrate.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func compile(tb testing.TB, spec *scenario.Spec) *topology.Dataset {
	tb.Helper()
	d, err := spec.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func bgtl(tb testing.TB) *scenario.Spec {
	tb.Helper()
	spec, ok := scenario.Lookup("BGTL")
	if !ok {
		tb.Fatal("no builtin scenario BGTL")
	}
	return spec
}

// fivePercent is the reference run's broadcast: 5% of the paper's payload.
func fivePercent() bittorrent.Config {
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes /= 20
	return cfg
}

// pick returns the vertex ids of d's hosts at the given indices, or all of
// them for nil.
func pick(d *topology.Dataset, idx []int) []int {
	if idx == nil {
		return d.Hosts
	}
	hosts := make([]int, len(idx))
	for i, k := range idx {
		hosts[i] = d.Hosts[k]
	}
	return hosts
}

// freshRun is the broadcast a one-off caller gets: RunBroadcast on a newly
// compiled dataset.
func freshRun(t *testing.T, spec *scenario.Spec, idx []int, cfg bittorrent.Config, seed int64) *bittorrent.Result {
	t.Helper()
	d := compile(t, spec)
	res, err := bittorrent.RunBroadcast(d.Eng, d.Net, pick(d, idx), cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return res
}

// assertIdle fails unless net has nothing in flight: a kept swarm's
// connections may be reused only because a successful run leaves none.
func assertIdle(t *testing.T, net *simnet.Network, step string) {
	t.Helper()
	if net.ActiveFlows() != 0 || net.PendingFlows() != 0 {
		t.Fatalf("%s: %d active and %d pending flows after a successful run", step, net.ActiveFlows(), net.PendingFlows())
	}
}

func deepCopy(r *bittorrent.Result) *bittorrent.Result {
	c := *r
	c.Fragments = make([][]int, len(r.Fragments))
	for i, row := range r.Fragments {
		c.Fragments[i] = slices.Clone(row)
	}
	c.CompletionTimes = slices.Clone(r.CompletionTimes)
	return &c
}

// TestBroadcasterReuseMatchesFresh drives one Broadcaster through runs that
// shrink and regrow the swarm, change its payload, batch size and peer cap,
// and move between two engines. Each Result must equal a fresh
// RunBroadcast's, and no later run may write into an earlier Result.
func TestBroadcasterReuseMatchesFresh(t *testing.T) {
	spec := bgtl(t)
	d := compile(t, spec)
	var subset []int // 16 of the 64 hosts
	for i := 0; i < len(d.Hosts); i += 4 {
		subset = append(subset, i)
	}
	with := func(edit func(*bittorrent.Config)) bittorrent.Config {
		cfg := fivePercent()
		edit(&cfg)
		return cfg
	}
	steps := []struct {
		name    string
		replica int   // the engine+network replica the run uses
		hosts   []int // host indices; nil for all 64
		cfg     bittorrent.Config
		seed    int64
		repair  bool // the tracker's draw leaves peers the connectivity repair must reach
	}{
		{"64 hosts", 0, nil, fivePercent(), 1, false},
		{"16-host subset", 0, subset, with(func(c *bittorrent.Config) { c.Root = 3 }), 2, false},
		{"64 hosts, another root", 0, nil, with(func(c *bittorrent.Config) { c.Root = 37 }), 3, false},
		{"another payload and batch size", 0, nil, with(func(c *bittorrent.Config) {
			c.FileBytes = bittorrent.DefaultFileBytes / 40
			c.BatchFragments = 8
		}), 4, false},
		// Two peers each would almost surely draw a connected graph; one
		// each, on this seed, leaves 24 peers outside the root's component.
		{"one peer each", 0, nil, with(func(c *bittorrent.Config) { c.MaxPeers = 1 }), 2, true},
		{"second engine", 1, nil, fivePercent(), 6, false},
		{"first engine again", 0, subset, fivePercent(), 7, false},
	}
	replicas := []*simnet.Network{d.Net.Clone(sim.NewEngine()), d.Net.Clone(sim.NewEngine())}
	var (
		b                bittorrent.Broadcaster
		first, firstCopy *bittorrent.Result
		timer            *sim.Event
	)
	for i, st := range steps {
		rep := replicas[st.replica]
		rep.Reset(d.Net)
		hosts := pick(d, st.hosts)
		got, err := b.Run(rep.Engine(), rep, hosts, st.cfg, rand.New(rand.NewSource(st.seed)))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		assertIdle(t, rep, st.name)
		if want := freshRun(t, spec, st.hosts, st.cfg, st.seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the reused Broadcaster's Result differs from a fresh RunBroadcast's", st.name)
		}
		if st.repair && b.Connections() <= len(hosts)*st.cfg.MaxPeers {
			t.Fatalf("%s: %d connections, no more than the tracker hands out: the repair added none", st.name, b.Connections())
		}
		if i > 0 {
			engineChanged := st.replica != steps[i-1].replica
			if rebuilt := b.Timer(0) != timer; rebuilt != engineChanged {
				t.Fatalf("%s: rechoke timers rebuilt %v, engine changed %v", st.name, rebuilt, engineChanged)
			}
		}
		timer = b.Timer(0)
		if first == nil {
			first, firstCopy = got, deepCopy(got)
		}
	}
	if !reflect.DeepEqual(first, firstCopy) {
		t.Fatal("a later run wrote into the first run's Result")
	}
}

// TestFailedRunDropsStorage: a broadcast over a network whose links are all
// down fails at MaxBroadcastTime with uploads still in flight, and those
// point into the swarm's storage. The Broadcaster must drop it, and its
// next run, on a reset replica, must equal a fresh one.
func TestFailedRunDropsStorage(t *testing.T) {
	spec := scenario.NSites(2, 4, 890, 100)
	d := compile(t, spec)
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes = 100 * cfg.FragmentSize
	rep := d.Net.Clone(sim.NewEngine())
	var b bittorrent.Broadcaster
	if _, err := b.Run(rep.Engine(), rep, d.Hosts, cfg, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if !b.HoldsStorage() {
		t.Fatal("a successful run dropped its storage")
	}

	rep.Reset(d.Net)
	core := rep.FindVertex("core")
	for site := 0; site < 2; site++ {
		sw := rep.FindVertex(fmt.Sprintf("site%d-sw", site))
		rep.SetLinkState(sw, core, false)
		for _, h := range d.Hosts[4*site : 4*site+4] {
			rep.SetLinkState(h, sw, false)
		}
	}
	_, err := b.Run(rep.Engine(), rep, d.Hosts, cfg, rand.New(rand.NewSource(2)))
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("a broadcast with every link down returned %v, want the MaxBroadcastTime error", err)
	}
	if rep.ActiveFlows() == 0 {
		t.Fatal("the failed run left nothing in flight")
	}
	if b.HoldsStorage() {
		t.Fatal("a failed run kept the storage its in-flight uploads point into")
	}

	rep.Reset(d.Net)
	got, err := b.Run(rep.Engine(), rep, d.Hosts, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	assertIdle(t, rep, "after the failure")
	if want := freshRun(t, spec, nil, cfg, 3); !reflect.DeepEqual(got, want) {
		t.Fatal("the run after a failed one differs from a fresh RunBroadcast's")
	}
}

// BenchmarkBroadcast is one reference-run broadcast (BGTL, 64 hosts, 5%
// payload) on a replica reset before each run, the way the sim substrate
// measures an iteration: cold on a new Broadcaster (RunBroadcast), warm on
// one kept across runs.
func BenchmarkBroadcast(b *testing.B) {
	d := compile(b, bgtl(b))
	cfg := fivePercent()
	rep := d.Net.Clone(sim.NewEngine())
	rng := rand.New(rand.NewSource(1))
	broadcast := func(b *testing.B, run func(*sim.Engine, *simnet.Network, []int, bittorrent.Config, *rand.Rand) (*bittorrent.Result, error)) {
		rep.Reset(d.Net)
		rng.Seed(1)
		if _, err := run(rep.Engine(), rep, d.Hosts, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			broadcast(b, bittorrent.RunBroadcast)
		}
	})
	b.Run("warm", func(b *testing.B) {
		var bc bittorrent.Broadcaster
		broadcast(b, bc.Run)
		b.ReportAllocs()
		for b.Loop() {
			broadcast(b, bc.Run)
		}
	})
}
