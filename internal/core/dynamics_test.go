package core

// Tests for the dynamic-topology extension (§V: overlays and VMs with
// "a dynamically altering underlying topology"): runtime link changes in
// the simulator and sliding-window tomography that tracks them.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// reconfigurable builds 12 hosts in two groups of 6 on switches s0, s1
// joined by a fast inter-switch link that tests can later choke; returns
// the network, hosts, and the switch ids.
func reconfigurable() (*simnet.Network, []int, [2]int) {
	net := simnet.New(sim.NewEngine())
	var sw [2]int
	for i := range sw {
		sw[i] = net.AddSwitch("s")
	}
	// Start: one flat logical cluster (fast, low-latency interconnect).
	net.Connect(sw[0], sw[1], simnet.LinkSpec{Capacity: simnet.Mbps(10000), Latency: 50e-6})
	var hosts []int
	for i := 0; i < 12; i++ {
		h := net.AddHost("h")
		net.Connect(h, sw[i/6], simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6})
		hosts = append(hosts, h)
	}
	return net, hosts, sw
}

func TestSetLinkCapacityRebalancesActiveFlows(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, b, simnet.LinkSpec{Capacity: 100})
	var done float64
	net.StartFlow(a, b, 1000, func() { done = eng.Now() })
	// Halve the capacity at t=5: 500 bytes moved, 500 remain at 50 B/s.
	eng.Schedule(5, func() { net.SetLinkCapacity(a, b, 50) })
	eng.Run()
	if math.Abs(done-15) > 1e-6 {
		t.Fatalf("flow finished at %g, want 15 (5s at 100 B/s + 10s at 50 B/s)", done)
	}
}

func TestSetLinkCapacityUnknownLinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	a := net.AddHost("a")
	b := net.AddHost("b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing link")
		}
	}()
	net.SetLinkCapacity(a, b, 10)
}

func TestFindVertex(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	net.AddHost("alpha")
	sw := net.AddSwitch("core-switch")
	if got := net.FindVertex("core-switch"); got != sw {
		t.Fatalf("FindVertex = %d, want %d", got, sw)
	}
	if got := net.FindVertex("nonexistent"); got != -1 {
		t.Fatalf("FindVertex(nonexistent) = %d, want -1", got)
	}
}

func TestWindowedAggregationMatchesCumulativeWhenStatic(t *testing.T) {
	// On a static network a window covering all iterations is identical
	// to the cumulative aggregation.
	run := func(window int) *Result {
		net, hosts, _ := reconfigurable()
		opts := testOptions(4)
		opts.Window = window
		res, err := Run(net, hosts, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cum := run(0)
	win := run(4)
	if math.Abs(cum.Graph.TotalWeight()-win.Graph.TotalWeight()) > 1e-9 {
		t.Fatalf("window=all (%.1f) differs from cumulative (%.1f)",
			win.Graph.TotalWeight(), cum.Graph.TotalWeight())
	}
}

func TestWindowedMeanIsOverWindowOnly(t *testing.T) {
	net, hosts, _ := reconfigurable()
	opts := testOptions(6)
	opts.Window = 2
	res, err := Run(net, hosts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The final graph must equal the mean of the last two iterations'
	// exchanges.
	last2 := 0.0
	for _, rec := range res.Iterations[4:] {
		last2 += float64(remeasure(t, net, hosts, opts, rec).TotalFragments())
	}
	// TotalFragments counts directed receptions = undirected edge sum.
	want := last2 / 2
	got := res.Graph.TotalWeight() * 1 // already the mean over window=2
	if math.Abs(got-want/1)/want > 1e-9 {
		t.Fatalf("windowed graph weight %.1f, want %.1f", got, want)
	}
}

func TestNegativeWindowRejected(t *testing.T) {
	net, hosts, _ := reconfigurable()
	opts := testOptions(2)
	opts.Window = -1
	if _, err := Run(net, hosts, nil, opts); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestWindowedTomographyTracksTopologyChange(t *testing.T) {
	// The headline dynamics result: when the underlying topology changes
	// (an overlay reroutes, a VM migrates, a link degrades), renewed
	// measurement reshapes the logical clustering.
	//
	// Before: one flat cluster (fast interconnect) -> truth A = {all}.
	// After the inter-switch link is choked to 50 Mbit/s, the two host
	// groups separate -> truth B = {0 | 1}.
	truthAfter := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}

	net, hosts, sw := reconfigurable()
	resA, err := Run(net, hosts, nil, testOptionsN(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A flat network has no meaningful structure: either a single
	// cluster, or a noise split with negligible modularity (the bumpy
	// modularity landscape of Good et al., which the paper discusses in
	// §III-D).
	if resA.Partition.NumClusters() != 1 && resA.Q > 0.05 {
		t.Fatalf("pre-change: clusters=%d Q=%.3f, want one flat cluster or negligible Q",
			resA.Partition.NumClusters(), resA.Q)
	}
	// Reconfigure mid-simulation: choke the interconnect.
	net.SetLinkCapacity(sw[0], sw[1], simnet.Mbps(50))
	resB, err := Run(net, hosts, truthAfter, testOptionsN(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resB.NMI < 0.99 || resB.Partition.NumClusters() != 2 {
		t.Fatalf("post-change: NMI=%.3f clusters=%d, want the two groups split",
			resB.NMI, resB.Partition.NumClusters())
	}
	if resB.Q < 0.1 {
		t.Fatalf("post-change Q = %.3f, want clear structure", resB.Q)
	}
}

// testOptionsN builds small options with an explicit window.
func testOptionsN(iters, window int) Options {
	opts := testOptions(iters)
	opts.Window = window
	return opts
}

// loadedSpec declares reconfigurable()'s two groups of six hosts as a
// scenario, with the inter-switch trunk at interMbps and, in each of
// iters iterations, bursts 256 MB cross-traffic transfers between
// scattered host pairs from the broadcast's start.
func loadedSpec(t *testing.T, interMbps float64, iters, bursts int) *scenario.Spec {
	t.Helper()
	b := scenario.NewBuilder("loaded").
		Link("eth", 890, 50e-6).
		Link("inter", interMbps, 50e-6).
		Switch("s0", "s1").
		Trunk("s0", "s1", "inter").
		Hosts("a", 6, "s0", "eth", "a").
		Hosts("b", 6, "s1", "eth", "b")
	host := func(i int) string { return fmt.Sprintf("%c-%d", "ab"[i/6%2], i%6) }
	for it := 1; it <= iters; it++ {
		for k := 0; k < bursts; k++ {
			// Strides 5 and 7 spread the pairs over both groups, mixing
			// intra- and inter-group paths.
			b.Burst(it, 0, host(5*k+it), host(5*k+it+7), 256)
		}
	}
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTomographyUnderBackgroundLoad(t *testing.T) {
	// §I: the method targets "large highly utilized heterogeneous
	// networks". With unrelated bulk transfers saturating scattered paths
	// throughout the measurement, the clustering must still recover the
	// two groups.
	d, err := loadedSpec(t, 50, 10, 4).Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDataset(d, testOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.NMI < 0.99 {
		t.Fatalf("NMI under background load = %.3f, want ~1", res.NMI)
	}
	// Cross traffic lives on the iteration replicas only.
	if d.Net.ActiveFlows() != 0 || d.Net.PendingFlows() != 0 {
		t.Fatalf("cross traffic leaked onto the dataset's network: %d active, %d pending",
			d.Net.ActiveFlows(), d.Net.PendingFlows())
	}
}

func TestBackgroundLoadSlowsMeasurement(t *testing.T) {
	run := func(bursts int) float64 {
		d, err := loadedSpec(t, 10000, 3, bursts).Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDataset(d, testOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMeasurementTime
	}
	idle := run(0)
	loaded := run(8)
	if loaded <= idle {
		t.Fatalf("background load did not slow broadcasts: %.2fs vs %.2fs", loaded, idle)
	}
}
