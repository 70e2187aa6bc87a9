package topology_test

// The datasets under test are compiled from scenario specs — the one
// place networks are defined — so these checks live in an external test
// package (scenario imports topology).

import (
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// paperNames lists the six paper datasets in the order the paper presents
// them.
func paperNames() []string {
	var names []string
	for _, s := range scenario.BuiltinSpecs() {
		names = append(names, s.Name)
	}
	return names
}

// builtin compiles one of the paper's six registered datasets.
func builtin(t *testing.T, name string) *topology.Dataset {
	t.Helper()
	d, err := scenario.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// compile materialises a generated spec.
func compile(t *testing.T, s *scenario.Spec) *topology.Dataset {
	t.Helper()
	d, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func countLabels(truth []int) map[int]int {
	m := map[int]int{}
	for _, l := range truth {
		m[l]++
	}
	return m
}

func TestBComposition(t *testing.T) {
	d := builtin(t, "B")
	if d.N() != 64 {
		t.Fatalf("B has %d hosts, want 64", d.N())
	}
	labels := countLabels(d.GroundTruth)
	if len(labels) != 2 {
		t.Fatalf("B ground truth has %d clusters, want 2", len(labels))
	}
	if labels[0] != 32 || labels[1] != 32 {
		t.Fatalf("B cluster sizes = %v, want 32 Bordeplage + 32 Bordereau/Borderline", labels)
	}
}

func TestBTCompositionHasThreePartTruth(t *testing.T) {
	d := builtin(t, "BT")
	if d.N() != 64 {
		t.Fatalf("BT has %d hosts, want 64", d.N())
	}
	labels := countLabels(d.GroundTruth)
	if len(labels) != 3 {
		t.Fatalf("BT ground truth has %d partitions, want 3 (hierarchical truth of §IV-C)", len(labels))
	}
	if labels[2] != 32 {
		t.Fatalf("BT Toulouse partition has %d nodes, want 32", labels[2])
	}
}

func TestSiteDatasets(t *testing.T) {
	cases := []struct {
		d        *topology.Dataset
		n, parts int
	}{
		{builtin(t, "2x2"), 4, 1},
		{builtin(t, "GT"), 64, 2},
		{builtin(t, "BGT"), 96, 3},
		{builtin(t, "BGTL"), 64, 4},
	}
	for _, c := range cases {
		if c.d.N() != c.n {
			t.Errorf("%s: %d hosts, want %d", c.d.Name, c.d.N(), c.n)
		}
		if got := len(countLabels(c.d.GroundTruth)); got != c.parts {
			t.Errorf("%s: %d ground-truth parts, want %d", c.d.Name, got, c.parts)
		}
	}
}

func TestIntraClusterBandwidthMatchesNetPIPE(t *testing.T) {
	d := builtin(t, "B")
	// Two Bordeplage nodes (same cluster switch).
	info := d.Net.Path(d.Hosts[0], d.Hosts[1])
	if got := simnet.ToMbps(info.Capacity); math.Abs(got-890) > 1e-9 {
		t.Fatalf("intra-cluster single-flow bandwidth = %g Mbps, want 890", got)
	}
}

func TestInterSiteBandwidthMatchesNetPIPE(t *testing.T) {
	d := builtin(t, "GT")
	// Grenoble host 0, Toulouse host 32.
	info := d.Net.Path(d.Hosts[0], d.Hosts[32])
	if got := simnet.ToMbps(info.Capacity); math.Abs(got-787) > 1e-9 {
		t.Fatalf("inter-site single-flow bandwidth = %g Mbps, want 787 (Renater per-flow)", got)
	}
	if info.Latency < 5e-3 {
		t.Fatalf("inter-site latency = %g, want >= 5ms (two WAN hops)", info.Latency)
	}
}

func TestBordeauxBottleneckOnPath(t *testing.T) {
	d := builtin(t, "B")
	// Bordeplage (index 0) to Bordereau (index 32): crosses Dell-Cisco.
	// A single flow still gets the full 890 (the bottleneck only binds
	// under concurrent load, as the paper stresses).
	info := d.Net.Path(d.Hosts[0], d.Hosts[32])
	if got := simnet.ToMbps(info.Capacity); math.Abs(got-890) > 1e-9 {
		t.Fatalf("cross-bottleneck single-flow bandwidth = %g Mbps, want 890", got)
	}
	// But under many concurrent cross flows the per-flow share collapses
	// while intra-cluster flows keep their full rate.
	var crossDone, intraDone int
	for i := 0; i < 16; i++ {
		d.Net.StartFlow(d.Hosts[i], d.Hosts[32+i], 1e6, func() { crossDone++ })
	}
	d.Net.StartFlow(d.Hosts[20], d.Hosts[21], 1e6, func() { intraDone++ })
	var intraT, lastCrossT float64
	d.Eng.Schedule(0, func() {})
	end := d.Eng.Run()
	lastCrossT = end
	_ = intraT
	if crossDone != 16 || intraDone != 1 {
		t.Fatalf("flows incomplete: cross=%d intra=%d", crossDone, intraDone)
	}
	// 16 MB total across an 890 Mbit/s (111 MB/s) link: at least 0.14s;
	// the intra flow alone would take ~9ms.
	if lastCrossT < 0.14 {
		t.Fatalf("cross traffic finished in %gs, too fast for a shared 1 GbE bottleneck", lastCrossT)
	}
}

func TestTwoByTwoBottleneckNotBinding(t *testing.T) {
	d := builtin(t, "2x2")
	// 2 cross flows over 890 Mbps: each gets 445 Mbps — comparable to
	// intra-pair rates, so no logical separation. Just verify the per-
	// flow rate stays above half the intra rate.
	var done int
	d.Net.StartFlow(d.Hosts[0], d.Hosts[2], 1e6, func() { done++ })
	d.Net.StartFlow(d.Hosts[1], d.Hosts[3], 1e6, func() { done++ })
	end := d.Eng.Run()
	if done != 2 {
		t.Fatalf("flows incomplete: %d", done)
	}
	// Each flow: 1 MB at >= 445 Mbps (55.6 MB/s) => <= ~18ms.
	if end > 0.02 {
		t.Fatalf("2x2 cross flows took %gs; bottleneck should not bind", end)
	}
}

func TestRegistryComplete(t *testing.T) {
	if got := paperNames(); len(got) != 6 {
		t.Fatalf("builtin specs are %v, want the six paper datasets", got)
	}
	for _, name := range paperNames() {
		d := builtin(t, name)
		if d.Name != name {
			t.Errorf("registry[%q] builds dataset named %q", name, d.Name)
		}
		if len(d.GroundTruth) != d.N() {
			t.Errorf("%s: truth length %d != host count %d", name, len(d.GroundTruth), d.N())
		}
	}
}

func TestAllPairsRoutable(t *testing.T) {
	for _, name := range paperNames() {
		d := builtin(t, name)
		for i := 0; i < d.N(); i++ {
			for j := i + 1; j < d.N(); j++ {
				info := d.Net.Path(d.Hosts[i], d.Hosts[j])
				if info.Capacity <= 0 {
					t.Fatalf("%s: no usable path %d->%d", name, i, j)
				}
			}
		}
	}
}

func TestFlatSites(t *testing.T) {
	d := compile(t, scenario.FlatSites(4, 32))
	if d.N() != 128 {
		t.Fatalf("FlatSites(4,32) has %d hosts, want 128", d.N())
	}
	if got := len(countLabels(d.GroundTruth)); got != 4 {
		t.Fatalf("FlatSites(4,32) truth parts = %d, want 4", got)
	}
	single := compile(t, scenario.FlatSites(1, 8))
	if single.N() != 8 {
		t.Fatalf("FlatSites(1,8) has %d hosts, want 8", single.N())
	}
	info := single.Net.Path(single.Hosts[0], single.Hosts[7])
	if math.Abs(simnet.ToMbps(info.Capacity)-890) > 1e-9 {
		t.Fatalf("single flat site bandwidth = %g Mbps, want 890", simnet.ToMbps(info.Capacity))
	}
}

func TestHostNamesDescriptive(t *testing.T) {
	d := builtin(t, "B")
	if d.HostName(0) != "bordeplage-0" {
		t.Fatalf("first host name = %q, want bordeplage-0", d.HostName(0))
	}
	if d.HostName(63) != "borderline-4" {
		t.Fatalf("last host name = %q, want borderline-4", d.HostName(63))
	}
}

func TestRandomTopologyShape(t *testing.T) {
	d := compile(t, scenario.RandomSites(3, 4, 8, 0, 1))
	if d.N() < 12 || d.N() > 24 {
		t.Fatalf("Random produced %d hosts, want 12..24", d.N())
	}
	if got := len(countLabels(d.GroundTruth)); got != 3 {
		t.Fatalf("truth parts = %d, want 3 (no bottlenecked sites)", got)
	}
	// All pairs routable.
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			if d.Net.Path(d.Hosts[i], d.Hosts[j]).Capacity <= 0 {
				t.Fatalf("pair %d-%d unroutable", i, j)
			}
		}
	}
}

func TestRandomTopologyWithBottlenecks(t *testing.T) {
	d := compile(t, scenario.RandomSites(2, 8, 8, 1, 2))
	if got := len(countLabels(d.GroundTruth)); got != 3 {
		t.Fatalf("truth parts = %d, want 3 (one split site + one flat)", got)
	}
}

func TestRandomTopologyDeterministic(t *testing.T) {
	a := compile(t, scenario.RandomSites(4, 3, 9, 2, 7))
	b := compile(t, scenario.RandomSites(4, 3, 9, 2, 7))
	if a.N() != b.N() {
		t.Fatalf("same seed gave %d vs %d hosts", a.N(), b.N())
	}
	for i := range a.GroundTruth {
		if a.GroundTruth[i] != b.GroundTruth[i] {
			t.Fatal("same seed gave different ground truths")
		}
	}
}

func TestReplicateIsIndependentAndEquivalent(t *testing.T) {
	d := builtin(t, "BT")
	r := d.Replicate()
	if r.Name != d.Name || r.N() != d.N() || r.TruthNote != d.TruthNote {
		t.Fatal("replica metadata differs")
	}
	if r.Eng == d.Eng || r.Net == d.Net {
		t.Fatal("replica shares simulator state with the original")
	}
	for i := range d.Hosts {
		if r.Hosts[i] != d.Hosts[i] || r.GroundTruth[i] != d.GroundTruth[i] {
			t.Fatalf("host %d differs in replica", i)
		}
		if r.HostName(i) != d.HostName(i) {
			t.Fatalf("host %d named %q in replica, want %q", i, r.HostName(i), d.HostName(i))
		}
	}
	// Same routes and capacities: the replica is measurement-equivalent.
	if got, want := r.Net.Path(r.Hosts[0], r.Hosts[63]), d.Net.Path(d.Hosts[0], d.Hosts[63]); got != want {
		t.Fatalf("replica path %+v, want %+v", got, want)
	}
	// Mutating the replica's truth must not touch the original.
	r.GroundTruth[0] = 99
	if d.GroundTruth[0] == 99 {
		t.Fatal("replica ground truth aliases the original")
	}
}
