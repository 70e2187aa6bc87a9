package bittorrent_test

// Tests of a Broadcaster's storage reuse on compiled scenarios. They live
// outside package bittorrent because scenario imports core, which imports
// bittorrent through substrate.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
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
	c.Pairs = slices.Clone(r.Pairs)
	c.CompletionTimes = slices.Clone(r.CompletionTimes)
	return &c
}

// TestBroadcasterReuseMatchesFresh drives one Broadcaster through runs that
// shrink and regrow the swarm, change its payload, shrink and regrow its
// batch size, change its peer cap, and move between two engines. Each
// Result must equal a fresh RunBroadcast's, and no later run may write into
// an earlier Result. A warm repeat of the regrown batch size allocates no
// more than a warm broadcast (BenchmarkBroadcast/warm): no request buffer
// of the old, smaller capacity is handed out again.
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
		repeat  bool // a warm repeat allocates only the Result
	}{
		{"64 hosts", 0, nil, fivePercent(), 1, false, false},
		{"16-host subset", 0, subset, with(func(c *bittorrent.Config) { c.Root = 3 }), 2, false, false},
		{"64 hosts, another root", 0, nil, with(func(c *bittorrent.Config) { c.Root = 37 }), 3, false, false},
		{"another payload and batch size", 0, nil, with(func(c *bittorrent.Config) {
			c.FileBytes = bittorrent.DefaultFileBytes / 40
			c.BatchFragments = 8
		}), 4, false, false},
		{"batch size grown again", 0, nil, with(func(c *bittorrent.Config) { c.BatchFragments = 32 }), 5, false, true},
		// Two peers each would almost surely draw a connected graph; one
		// each, on this seed, leaves 24 peers outside the root's component.
		{"one peer each", 0, nil, with(func(c *bittorrent.Config) { c.MaxPeers = 1 }), 2, true, false},
		{"second engine", 1, nil, fivePercent(), 6, false, false},
		{"first engine again", 0, subset, fivePercent(), 7, false, false},
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
		if st.repeat && !raceEnabled() {
			rng := rand.New(rand.NewSource(st.seed))
			allocs := testing.AllocsPerRun(2, func() {
				rep.Reset(d.Net)
				rng.Seed(st.seed)
				if _, err := b.Run(rep.Engine(), rep, hosts, st.cfg, rng); err != nil {
					t.Fatalf("%s, repeated: %v", st.name, err)
				}
			})
			if allocs > 3 { // the Result, its Pairs and its CompletionTimes
				t.Fatalf("%s: a warm repeat allocates %v times, want at most 3", st.name, allocs)
			}
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

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// skipUnderRace skips a test that counts allocations.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

// coldBytes returns the bytes a cold Run of a broadcast over every host of
// d allocates on a replica whose routes an identical run has already
// materialised, and the Broadcaster that ran it.
func coldBytes(t *testing.T, d *topology.Dataset, cfg bittorrent.Config) (uint64, *bittorrent.Broadcaster) {
	t.Helper()
	rep := d.Net.Clone(sim.NewEngine())
	var warm, cold bittorrent.Broadcaster
	if _, err := warm.Run(rep.Engine(), rep, d.Hosts, cfg, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	rep.Reset(d.Net)
	rng := rand.New(rand.NewSource(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cold.Run(rep.Engine(), rep, d.Hosts, cfg, rng)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, &cold
}

// TestColdBroadcastBytesPerConnection holds a broadcast's storage to
// O(connections): a cold Run of a 64-fragment payload on a replica whose
// routes an identical run has already materialised allocates the same bytes
// per connection, within 10%, at 256 and at 1024 hosts. Anything n×n (an
// 8 MiB array at 1024 hosts) breaks the tie.
func TestColdBroadcastBytesPerConnection(t *testing.T) {
	skipUnderRace(t)
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes = 64 * cfg.FragmentSize
	perConn := func(spec *scenario.Spec) float64 {
		d := compile(t, spec)
		bytes, cold := coldBytes(t, d, cfg)
		t.Logf("%d hosts: %d bytes over %d connections, %.0f B/conn",
			len(d.Hosts), bytes, cold.Connections(), float64(bytes)/float64(cold.Connections()))
		return float64(bytes) / float64(cold.Connections())
	}
	small := perConn(scenario.NSites(4, 64, 890, 100))
	large := perConn(scenario.NSites(4, 256, 890, 100))
	if r := large / small; r > 1.1 || r < 1/1.1 {
		t.Fatalf("a cold broadcast allocates %.0f B/conn at 1024 hosts and %.0f at 256: not O(connections)", large, small)
	}
}

// TestColdBroadcastBytesPerPiece holds a broadcast's per-piece storage to
// what it reads: going from 1,024 to 8,192 pieces, a cold Run allocates at
// most 4.5 bytes per host for each piece added. A peer's need list is 4 of
// them; a haveList as long as the payload would be 4 more.
func TestColdBroadcastBytesPerPiece(t *testing.T) {
	skipUnderRace(t)
	d := compile(t, scenario.NSites(2, 8, 890, 100))
	at := func(pieces int) uint64 {
		cfg := bittorrent.DefaultConfig()
		cfg.FileBytes = pieces * cfg.FragmentSize
		bytes, _ := coldBytes(t, d, cfg)
		return bytes
	}
	small, large := at(1024), at(8192)
	perPiece := (float64(large) - float64(small)) / float64(len(d.Hosts)*(8192-1024))
	t.Logf("%d hosts: %d bytes at 1,024 pieces, %d at 8,192: %.2f B per host per added piece",
		len(d.Hosts), small, large, perPiece)
	if perPiece > 4.5 {
		t.Fatalf("a cold broadcast allocates %.2f bytes per host per added piece, budget 4.5", perPiece)
	}
}

// TestBatchLargerThanPayload: a batch never holds more than the payload, so
// a BatchFragments far past it sizes no buffer by its own value and picks
// the pieces a BatchFragments of exactly the payload does.
func TestBatchLargerThanPayload(t *testing.T) {
	spec := scenario.NSites(2, 4, 890, 100)
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes = 64 * cfg.FragmentSize
	cfg.BatchFragments = cfg.NumFragments()
	want := freshRun(t, spec, nil, cfg, 1)
	cfg.BatchFragments = 1 << 40
	if got := freshRun(t, spec, nil, cfg, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("a BatchFragments of 1<<40 broadcasts differently from one of the payload's 64 fragments")
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
