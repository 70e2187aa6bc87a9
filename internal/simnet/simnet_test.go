package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// pair builds two hosts joined by one link.
func pair(t *testing.T, spec LinkSpec) (*sim.Engine, *Network, int, int) {
	t.Helper()
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.Connect(a, b, spec)
	return eng, n, a, b
}

func TestSingleFlowCompletionTime(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100, Latency: 0.5})
	var doneAt float64 = -1
	n.StartFlow(a, b, 1000, func() { doneAt = eng.Now() })
	eng.Run()
	// 0.5s latency + 1000B / 100B/s = 10.5s.
	if math.Abs(doneAt-10.5) > 1e-6 {
		t.Fatalf("flow finished at %g, want 10.5", doneAt)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100})
	var t1, t2 float64
	n.StartFlow(a, b, 1000, func() { t1 = eng.Now() })
	n.StartFlow(a, b, 1000, func() { t2 = eng.Now() })
	eng.Run()
	// Each gets 50 B/s: both finish at 20s.
	if math.Abs(t1-20) > 1e-6 || math.Abs(t2-20) > 1e-6 {
		t.Fatalf("flows finished at %g, %g, want 20, 20", t1, t2)
	}
}

func TestOppositeDirectionsDoNotShare(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100})
	var t1, t2 float64
	n.StartFlow(a, b, 1000, func() { t1 = eng.Now() })
	n.StartFlow(b, a, 1000, func() { t2 = eng.Now() })
	eng.Run()
	// Full duplex: each direction has its own 100 B/s.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Fatalf("flows finished at %g, %g, want 10, 10", t1, t2)
	}
}

func TestRateReallocatedWhenFlowFinishes(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100})
	var tShort, tLong float64
	n.StartFlow(a, b, 500, func() { tShort = eng.Now() })
	n.StartFlow(a, b, 1500, func() { tLong = eng.Now() })
	eng.Run()
	// Shared 50/50 until the short one finishes at t=10 (500B at 50B/s).
	// The long one then has 1000B left at 100B/s: finishes at t=20.
	if math.Abs(tShort-10) > 1e-6 {
		t.Fatalf("short flow finished at %g, want 10", tShort)
	}
	if math.Abs(tLong-20) > 1e-6 {
		t.Fatalf("long flow finished at %g, want 20", tLong)
	}
}

// Dumbbell: two hosts per side, 1 shared middle link of capacity 100,
// access links of capacity 1000.
func dumbbell(accessCap, coreCap float64) (*sim.Engine, *Network, [4]int) {
	eng := sim.NewEngine()
	n := New(eng)
	var hosts [4]int
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	for i := 0; i < 2; i++ {
		hosts[i] = n.AddHost("l" + string(rune('0'+i)))
		n.Connect(hosts[i], s1, LinkSpec{Capacity: accessCap})
	}
	for i := 2; i < 4; i++ {
		hosts[i] = n.AddHost("r" + string(rune('0'+i)))
		n.Connect(hosts[i], s2, LinkSpec{Capacity: accessCap})
	}
	n.Connect(s1, s2, LinkSpec{Capacity: coreCap})
	return eng, n, hosts
}

func TestBottleneckSharedAcrossPairs(t *testing.T) {
	eng, n, h := dumbbell(1000, 100)
	var t1, t2 float64
	n.StartFlow(h[0], h[2], 500, func() { t1 = eng.Now() })
	n.StartFlow(h[1], h[3], 500, func() { t2 = eng.Now() })
	eng.Run()
	// Both flows cross the 100 B/s core: 50 B/s each -> 10s.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Fatalf("finished at %g, %g, want 10, 10", t1, t2)
	}
}

func TestMaxMinUnevenAllocation(t *testing.T) {
	// One flow constrained to 10 by its access link, another sharing the
	// core: max-min gives the unconstrained flow the leftovers.
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	s := n.AddSwitch("s")
	d := n.AddHost("d")
	n.Connect(a, s, LinkSpec{Capacity: 10}) // slow access
	n.Connect(b, s, LinkSpec{Capacity: 1000})
	n.Connect(c, s, LinkSpec{Capacity: 1000})
	n.Connect(s, d, LinkSpec{Capacity: 100}) // shared core to d
	var rates []float64
	n.StartFlow(a, d, 1e9, nil)
	n.StartFlow(b, d, 1e9, nil)
	probe := n.StartFlow(c, d, 1e9, nil)
	_ = probe
	eng.Schedule(0.001, func() {
		for _, f := range n.flows {
			rates = append(rates, f.rate)
		}
	})
	eng.RunUntil(0.001)
	if len(rates) != 3 {
		t.Fatalf("expected 3 active flows, got %d", len(rates))
	}
	// Max-min on core 100 with one flow capped at 10: {10, 45, 45}.
	var got []float64
	got = append(got, rates...)
	for i := 1; i < len(got); i++ {
		for j := i; j > 0 && got[j-1] > got[j]; j-- {
			got[j-1], got[j] = got[j], got[j-1]
		}
	}
	want := []float64{10, 45, 45}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("max-min rates = %v, want %v", got, want)
		}
	}
}

func TestPerFlowCap(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 1000, PerFlowCap: 100})
	var t1 float64
	n.StartFlow(a, b, 1000, func() { t1 = eng.Now() })
	eng.Run()
	if math.Abs(t1-10) > 1e-6 {
		t.Fatalf("capped flow finished at %g, want 10", t1)
	}
	// Several capped flows can still use the aggregate capacity.
	eng2 := sim.NewEngine()
	n2 := New(eng2)
	a2 := n2.AddHost("a")
	b2 := n2.AddHost("b")
	n2.Connect(a2, b2, LinkSpec{Capacity: 1000, PerFlowCap: 100})
	var finished int
	for i := 0; i < 5; i++ {
		n2.StartFlow(a2, b2, 1000, func() { finished++ })
	}
	end := eng2.Run()
	if finished != 5 {
		t.Fatalf("finished %d flows, want 5", finished)
	}
	// 5 flows at 100 each fit in 1000 aggregate: all done at t=10.
	if math.Abs(end-10) > 1e-6 {
		t.Fatalf("all capped flows finished at %g, want 10", end)
	}
}

func TestCancelFlow(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100})
	done := false
	f := n.StartFlow(a, b, 1000, func() { done = true })
	eng.Schedule(2, func() { n.CancelFlow(f) })
	eng.Run()
	if done {
		t.Fatal("cancelled flow invoked its callback")
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after cancel, want 0", n.ActiveFlows())
	}
}

func TestCancelBeforeActivation(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100, Latency: 5})
	done := false
	f := n.StartFlow(a, b, 1000, func() { done = true })
	n.CancelFlow(f) // still in latency phase
	eng.Run()
	if done || n.ActiveFlows() != 0 {
		t.Fatal("flow cancelled during latency phase still ran")
	}
}

func TestCancelFreesBandwidth(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100})
	var tLong float64
	f := n.StartFlow(a, b, 1e6, nil)
	n.StartFlow(a, b, 1000, func() { tLong = eng.Now() })
	eng.Schedule(5, func() { n.CancelFlow(f) })
	eng.Run()
	// Shares 50/50 for 5s (250B moved), then full 100 B/s for 750B: 12.5s.
	if math.Abs(tLong-12.5) > 1e-6 {
		t.Fatalf("flow finished at %g, want 12.5", tLong)
	}
}

func TestPathInfo(t *testing.T) {
	eng := sim.NewEngine()
	_ = eng
	n := New(eng)
	a := n.AddHost("a")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	b := n.AddHost("b")
	n.Connect(a, s1, LinkSpec{Capacity: 1000, Latency: 0.001})
	n.Connect(s1, s2, LinkSpec{Capacity: 200, Latency: 0.01, PerFlowCap: 150})
	n.Connect(s2, b, LinkSpec{Capacity: 1000, Latency: 0.001})
	info := n.Path(a, b)
	if info.Hops != 3 {
		t.Fatalf("Hops = %d, want 3", info.Hops)
	}
	if math.Abs(info.Latency-0.012) > 1e-9 {
		t.Fatalf("Latency = %g, want 0.012", info.Latency)
	}
	if info.Capacity != 150 {
		t.Fatalf("Capacity = %g, want 150 (per-flow cap binds)", info.Capacity)
	}
}

func TestNoRoutePanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b") // not connected
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unroutable flow")
		}
	}()
	n.StartFlow(a, b, 1, nil)
}

func TestFlowToSelfPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self flow")
		}
	}()
	n.StartFlow(a, a, 1, nil)
}

func TestSwitchEndpointPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	s := n.AddSwitch("s")
	n.Connect(a, s, LinkSpec{Capacity: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for switch endpoint")
		}
	}()
	n.StartFlow(a, s, 1, nil)
}

func TestUnitConversions(t *testing.T) {
	if Mbps(8) != 1e6 {
		t.Fatalf("Mbps(8) = %g, want 1e6 B/s", Mbps(8))
	}
	if ToMbps(Mbps(890)) != 890 {
		t.Fatalf("round trip ToMbps(Mbps(890)) = %g", ToMbps(Mbps(890)))
	}
}

// Property: all bytes are conserved — every flow finishes, and finish
// times are no earlier than size/pathCapacity.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		n := New(eng)
		nh := rng.Intn(6) + 2
		s := n.AddSwitch("s")
		hosts := make([]int, nh)
		for i := range hosts {
			hosts[i] = n.AddHost("h")
			n.Connect(hosts[i], s, LinkSpec{Capacity: float64(rng.Intn(900) + 100)})
		}
		type rec struct {
			size, minTime float64
			done          bool
			at            float64
		}
		var recs []*rec
		for i := 0; i < rng.Intn(20)+1; i++ {
			src := hosts[rng.Intn(nh)]
			dst := hosts[rng.Intn(nh)]
			if src == dst {
				continue
			}
			size := float64(rng.Intn(10000) + 1)
			r := &rec{size: size, minTime: size / n.Path(src, dst).Capacity}
			recs = append(recs, r)
			n.StartFlow(src, dst, size, func() { r.done = true; r.at = eng.Now() })
		}
		eng.Run()
		for _, r := range recs {
			if !r.done {
				return false
			}
			if r.at < r.minTime-1e-6 {
				return false // finished faster than physics allows
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: at any allocation, per-channel rate sums never exceed capacity
// and every flow with a cap respects it.
func TestCapacityRespectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		n := New(eng)
		s1 := n.AddSwitch("s1")
		s2 := n.AddSwitch("s2")
		core := float64(rng.Intn(500) + 50)
		n.Connect(s1, s2, LinkSpec{Capacity: core, PerFlowCap: float64(rng.Intn(100) + 10)})
		var hosts []int
		for i := 0; i < 6; i++ {
			h := n.AddHost("h")
			hosts = append(hosts, h)
			if i < 3 {
				n.Connect(h, s1, LinkSpec{Capacity: float64(rng.Intn(900) + 100)})
			} else {
				n.Connect(h, s2, LinkSpec{Capacity: float64(rng.Intn(900) + 100)})
			}
		}
		for i := 0; i < 12; i++ {
			src := hosts[rng.Intn(3)]
			dst := hosts[3+rng.Intn(3)]
			n.StartFlow(src, dst, float64(rng.Intn(5000)+500), nil)
		}
		ok := true
		eng.Schedule(0.01, func() {
			sums := map[*channel]float64{}
			for _, fl := range n.flows {
				if fl.cap > 0 && fl.rate > fl.cap+1e-6 {
					ok = false
				}
				for _, c := range fl.path {
					sums[c] += fl.rate
				}
			}
			for c, s := range sums {
				if s > c.capacity+1e-6 {
					ok = false
				}
			}
		})
		eng.RunUntil(0.01)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		eng := sim.NewEngine()
		n := New(eng)
		s := n.AddSwitch("s")
		var hosts []int
		for i := 0; i < 5; i++ {
			h := n.AddHost("h")
			hosts = append(hosts, h)
			n.Connect(h, s, LinkSpec{Capacity: 100})
		}
		var times []float64
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 25; i++ {
			src := hosts[rng.Intn(5)]
			dst := hosts[(rng.Intn(4)+1+src)%5]
			if src == dst {
				continue
			}
			n.StartFlow(src, dst, float64(rng.Intn(900)+100), func() {
				times = append(times, eng.Now())
			})
		}
		eng.Run()
		return times
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at completion %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestCompletionAtLargeSimulatedTime(t *testing.T) {
	// Regression: with the clock at 1e9 seconds, event times quantise to
	// ~0.12 µs, so a fast flow's final micro-bytes cannot be delivered by
	// scheduling alone — the completion check must absorb the clock
	// granularity or the flow starves in an infinite sub-ulp reschedule
	// loop (observed after long measurement campaigns on one engine).
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.Connect(a, b, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	eng.RunUntil(1e9)
	done := false
	n.StartFlow(a, b, 1024, func() { done = true })
	for i := 0; i < 100000 && !done; i++ {
		if !eng.Step() {
			break
		}
	}
	if !done {
		t.Fatal("1 KiB flow never completed at large simulated time")
	}
}

func TestManySequentialFlowsOnAgedEngine(t *testing.T) {
	// Drive hundreds of small flows on an engine whose clock has grown
	// large; every one must complete in a bounded number of events.
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.Connect(a, b, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	eng.RunUntil(5e8)
	for k := 0; k < 500; k++ {
		done := false
		n.StartFlow(a, b, float64(1024+k*7), func() { done = true })
		for i := 0; i < 10000 && !done; i++ {
			if !eng.Step() {
				break
			}
		}
		if !done {
			t.Fatalf("flow %d starved on aged engine", k)
		}
	}
}

func TestRoutingShortestHops(t *testing.T) {
	// Chain a-s1-s2-s3-b plus a shortcut a-s3: the route must take the
	// shortcut (2 hops to b via s3, not 4).
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	s3 := n.AddSwitch("s3")
	n.Connect(a, s1, LinkSpec{Capacity: 100, Latency: 0.001})
	n.Connect(s1, s2, LinkSpec{Capacity: 100, Latency: 0.001})
	n.Connect(s2, s3, LinkSpec{Capacity: 100, Latency: 0.001})
	n.Connect(s3, b, LinkSpec{Capacity: 100, Latency: 0.001})
	n.Connect(a, s3, LinkSpec{Capacity: 50, Latency: 0.001})
	info := n.Path(a, b)
	if info.Hops != 2 {
		t.Fatalf("route uses %d hops, want 2 via the shortcut", info.Hops)
	}
	if info.Capacity != 50 {
		t.Fatalf("shortcut path capacity = %g, want 50", info.Capacity)
	}
}

func TestRouteCacheInvalidatedByTopologyChange(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	b := n.AddHost("b")
	n.Connect(a, s1, LinkSpec{Capacity: 100})
	n.Connect(s1, s2, LinkSpec{Capacity: 100})
	n.Connect(s2, b, LinkSpec{Capacity: 100})
	if got := n.Path(a, b).Hops; got != 3 {
		t.Fatalf("initial hops = %d, want 3", got)
	}
	// Adding a direct link must invalidate the cached BFS tree.
	n.Connect(a, b, LinkSpec{Capacity: 10})
	if got := n.Path(a, b).Hops; got != 1 {
		t.Fatalf("hops after new link = %d, want 1", got)
	}
}

func TestPathLatencyAdditiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		n := New(eng)
		// A chain of 2-6 switches between two hosts.
		k := rng.Intn(5) + 1
		a := n.AddHost("a")
		prev := a
		total := 0.0
		for i := 0; i < k; i++ {
			sw := n.AddSwitch("s")
			lat := rng.Float64() * 0.01
			total += lat
			n.Connect(prev, sw, LinkSpec{Capacity: 100, Latency: lat})
			prev = sw
		}
		b := n.AddHost("b")
		lat := rng.Float64() * 0.01
		total += lat
		n.Connect(prev, b, LinkSpec{Capacity: 100, Latency: lat})
		info := n.Path(a, b)
		return info.Hops == k+1 && math.Abs(info.Latency-total) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCopiesTopology(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	sw := n.AddSwitch("sw")
	b := n.AddHost("b")
	n.Connect(a, sw, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	n.Connect(sw, b, LinkSpec{Capacity: Mbps(100), Latency: 1e-3, PerFlowCap: Mbps(50)})

	eng2 := sim.NewEngine()
	c := n.Clone(eng2)
	if len(c.topo.verts) != len(n.topo.verts) {
		t.Fatalf("clone has %d vertices, want %d", len(c.topo.verts), len(n.topo.verts))
	}
	for v := 0; v < len(n.topo.verts); v++ {
		if c.Name(v) != n.Name(v) || c.IsHost(v) != n.IsHost(v) {
			t.Fatalf("vertex %d differs in clone", v)
		}
	}
	want := n.Path(a, b)
	got := c.Path(a, b)
	if got != want {
		t.Fatalf("clone path info %+v, want %+v", got, want)
	}
	if c.Engine() != eng2 {
		t.Fatal("clone not bound to the new engine")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: Mbps(800), Latency: 1e-3})
	eng2 := sim.NewEngine()
	c := n.Clone(eng2)

	// A capacity change on the original must not leak into the clone.
	n.SetLinkCapacity(a, b, Mbps(100))
	eng.Run() // drain the re-allocation the change scheduled
	if got, want := c.Path(a, b).Capacity, Mbps(800); got != want {
		t.Fatalf("clone capacity changed to %g, want %g", got, want)
	}
	// A flow on the clone must not appear on the original.
	done := false
	c.StartFlow(a, b, 1e6, func() { done = true })
	eng2.Run()
	if !done {
		t.Fatal("flow on clone did not complete")
	}
	if n.ActiveFlows() != 0 || eng.Pending() != 0 {
		t.Fatal("flow on clone leaked into the original network")
	}
}

func TestCloneReplaysIdentically(t *testing.T) {
	run := func(n *Network, eng *sim.Engine, a, b int) float64 {
		for i := 0; i < 4; i++ {
			n.StartFlow(a, b, 5e6, nil)
			n.StartFlow(b, a, 3e6, nil)
		}
		return eng.Run()
	}
	eng1, n1, a, b := pair(t, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	eng2 := sim.NewEngine()
	n2 := n1.Clone(eng2)
	if t1, t2 := run(n1, eng1, a, b), run(n2, eng2, a, b); t1 != t2 {
		t.Fatalf("clone finished at %g, original at %g", t2, t1)
	}
}

func TestCloneWithActiveFlowsPanics(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	n.StartFlow(a, b, 1e12, nil)
	eng.RunUntil(eng.Now() + 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Clone with active flows did not panic")
		}
	}()
	n.Clone(sim.NewEngine())
}

func TestCloneWithPendingFlowsPanics(t *testing.T) {
	_, n, a, b := pair(t, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	n.StartFlow(a, b, 1e12, nil) // engine never runs: flow stays pending
	if n.PendingFlows() != 1 || n.ActiveFlows() != 0 {
		t.Fatalf("pending=%d active=%d, want 1/0", n.PendingFlows(), n.ActiveFlows())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone with a pending flow did not panic")
		}
	}()
	n.Clone(sim.NewEngine())
}

func TestPendingFlowsDrainsOnActivationAndCompletion(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: Mbps(890), Latency: 50e-6})
	n.StartFlow(a, b, 1e6, nil)
	if n.PendingFlows() != 1 {
		t.Fatalf("pending = %d after start, want 1", n.PendingFlows())
	}
	eng.Run()
	if n.PendingFlows() != 0 || n.ActiveFlows() != 0 {
		t.Fatalf("pending=%d active=%d after drain, want 0/0", n.PendingFlows(), n.ActiveFlows())
	}
	// A cancelled-before-activation flow drains once its event fires.
	f := n.StartFlow(a, b, 1e6, nil)
	n.CancelFlow(f)
	eng.Run()
	if n.PendingFlows() != 0 {
		t.Fatalf("pending = %d after cancelled activation drained, want 0", n.PendingFlows())
	}
}

// TestCloneSharesNoMutableLinkState is the invariant the dynamics replay
// depends on: replicas mutate link capacity and up/down state freely, and
// neither the original network nor sibling replicas may observe it —
// whether a replica is fresh from Clone or reused after Reset.
func TestCloneSharesNoMutableLinkState(t *testing.T) {
	_, n, a, b := pair(t, LinkSpec{Capacity: Mbps(800), Latency: 1e-3})
	c1 := n.Clone(sim.NewEngine())
	c2 := n.Clone(sim.NewEngine())

	// Mutate one clone: capacity change and a link failure.
	c1.SetLinkCapacity(a, b, Mbps(50))
	c1.SetLinkState(a, b, false)
	if c1.LinkUp(a, b) || c1.LinkCapacity(a, b) != Mbps(50) {
		t.Fatal("mutations did not take on the mutated clone")
	}
	for name, other := range map[string]*Network{"original": n, "sibling clone": c2} {
		if got, want := other.LinkCapacity(a, b), Mbps(800); got != want {
			t.Fatalf("%s capacity changed to %g, want %g", name, got, want)
		}
		if !other.LinkUp(a, b) {
			t.Fatalf("%s link went down with the mutated clone", name)
		}
	}
	// And the other direction: mutating the original leaves both clones'
	// state (including c1's failure) untouched.
	n.SetLinkCapacity(a, b, Mbps(200))
	if c2.LinkCapacity(a, b) != Mbps(800) {
		t.Fatal("original's capacity change leaked into a clone")
	}
	if c1.LinkUp(a, b) {
		t.Fatal("original's mutation reset a clone's link state")
	}
	// A clone of the mutated clone carries the down state and capacity.
	c3 := c1.Clone(sim.NewEngine())
	if c3.LinkUp(a, b) || c3.LinkCapacity(a, b) != Mbps(50) {
		t.Fatal("Clone dropped runtime link state")
	}

	// A reused replica takes the original's link state as it is now, by
	// value, and is then as independent as a fresh clone.
	c1.Path(a, b)
	c1.Reset(n)
	if !c1.LinkUp(a, b) || c1.LinkCapacity(a, b) != Mbps(200) {
		t.Fatal("Reset did not take the original's link state")
	}
	if materialisedRoutes(c1) != 1 {
		t.Fatal("Reset dropped the replica's materialised routes")
	}
	c1.SetLinkCapacity(a, b, Mbps(10))
	c1.SetLinkState(a, b, false)
	if !n.LinkUp(a, b) || n.LinkCapacity(a, b) != Mbps(200) || !c2.LinkUp(a, b) || c2.LinkCapacity(a, b) != Mbps(800) {
		t.Fatal("a reset replica's mutations leaked into the original or a sibling")
	}
	c2.Reset(n)
	if !c2.LinkUp(a, b) || c2.LinkCapacity(a, b) != Mbps(200) {
		t.Fatal("a sibling's Reset picked up another replica's link state")
	}

	// A network that has carried flows keeps per-channel occupancy and a
	// route per (src, dst); a clone starts with neither.
	n.StartFlow(a, b, 1000, nil)
	n.Engine().RunUntil(n.Engine().Now() + 1e-3)
	if len(n.occupied) != 1 || n.occupied[0].nFlows != 1 {
		t.Fatalf("an active flow left occupancy %v", n.occupied)
	}
	n.Engine().Run()
	if materialisedRoutes(n) != 1 {
		t.Fatal("the original kept no route to withhold from a clone")
	}
	c4 := n.Clone(sim.NewEngine())
	if materialisedRoutes(c4) != 0 || len(c4.occupied) != 0 {
		t.Fatalf("clone starts with %d routes, %d occupied channels", materialisedRoutes(c4), len(c4.occupied))
	}
	for id := range c4.topo.links {
		if ch := c4.channel(int32(id)); ch.nFlows != 0 {
			t.Fatalf("clone channel starts with %d flows", ch.nFlows)
		}
	}
	// Every change to the vertex or link set drops the cached routes.
	for _, m := range []struct {
		what   string
		mutate func()
	}{
		{"AddHost", func() { n.AddHost("c") }},
		{"AddSwitch", func() { n.AddSwitch("s") }},
		{"Connect", func() { n.Connect(a, n.FindVertex("s"), LinkSpec{Capacity: 1}) }},
	} {
		n.Path(a, b)
		if materialisedRoutes(n) == 0 || n.topo.routes == nil {
			t.Fatal("Path did not keep the route")
		}
		m.mutate()
		if materialisedRoutes(n) != 0 || n.topo.routes != nil {
			t.Fatalf("%s left %d materialised routes and the route table %v", m.what, materialisedRoutes(n), n.topo.routes)
		}
	}
}

func TestLinkDownStallsFlowUntilLinkUp(t *testing.T) {
	eng, n, a, b := pair(t, LinkSpec{Capacity: 100})
	var done float64
	n.StartFlow(a, b, 1000, func() { done = eng.Now() })
	// Fail the link for [5, 10): the flow moves 500 bytes, stalls 5
	// seconds, then finishes the rest.
	eng.Schedule(5, func() { n.SetLinkState(a, b, false) })
	eng.Schedule(10, func() { n.SetLinkState(a, b, true) })
	eng.Run()
	if math.Abs(done-15) > 1e-6 {
		t.Fatalf("flow finished at %g, want 15 (5s moving + 5s outage + 5s moving)", done)
	}
	if n.LinkUp(a, b) != true {
		t.Fatal("link not back up")
	}
}

func TestLinkDownOnlyStallsCrossingFlows(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	sw := n.AddSwitch("sw")
	var h [3]int
	for i := range h {
		h[i] = n.AddHost("h")
		n.Connect(h[i], sw, LinkSpec{Capacity: 100})
	}
	var t01, t12 float64
	n.StartFlow(h[0], h[1], 1000, func() { t01 = eng.Now() })
	n.StartFlow(h[1], h[2], 1000, func() { t12 = eng.Now() })
	// h0's access link fails for [2, 7): only the h0->h1 flow stalls.
	eng.Schedule(2, func() { n.SetLinkState(h[0], sw, false) })
	eng.Schedule(7, func() { n.SetLinkState(h[0], sw, true) })
	eng.Run()
	if math.Abs(t12-10) > 1e-6 {
		t.Fatalf("unaffected flow finished at %g, want 10", t12)
	}
	if math.Abs(t01-15) > 1e-6 {
		t.Fatalf("stalled flow finished at %g, want 15", t01)
	}
}

func TestPathCapacityZeroWhileLinkDown(t *testing.T) {
	_, n, a, b := pair(t, LinkSpec{Capacity: 100})
	n.SetLinkState(a, b, false)
	if got := n.Path(a, b).Capacity; got != 0 {
		t.Fatalf("Path capacity over a down link = %g, want 0", got)
	}
	n.SetLinkState(a, b, true)
	if got := n.Path(a, b).Capacity; got != 100 {
		t.Fatalf("Path capacity after recovery = %g, want 100", got)
	}
}

func TestLinkStateUnknownLinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	a := n.AddHost("a")
	b := n.AddHost("b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing link")
		}
	}()
	n.SetLinkState(a, b, false)
}

// TestCapacityMustBeFiniteAndPositive: the solver counts a channel whose
// room is within its slack of zero as saturated, and for an infinite
// capacity both are +Inf, so such a link would cap every flow crossing it
// at the level of the first constraint to bind anywhere. Connect and
// SetLinkCapacity refuse it, and NaN, as they refuse zero.
func TestCapacityMustBeFiniteAndPositive(t *testing.T) {
	for _, capacity := range []float64{0, -1, math.Inf(1), math.NaN()} {
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted capacity %g", what, capacity)
				}
			}()
			f()
		}
		mustPanic("Connect", func() { pair(t, LinkSpec{Capacity: capacity}) })
		_, n, a, b := pair(t, LinkSpec{Capacity: 100})
		mustPanic("SetLinkCapacity", func() { n.SetLinkCapacity(a, b, capacity) })
		if got := n.LinkCapacity(a, b); got != 100 {
			t.Errorf("a refused SetLinkCapacity(%g) left capacity %g, want 100", capacity, got)
		}
	}
}
