package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nmi"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

const probeMB = 8 << 20 // small probes keep tests fast

// The Grid'5000 link classes of the built-in datasets (§IV-A), for the
// hand-built networks below: a 1 GbE host link, a 10 GbE cluster uplink
// and the 1 GbE Dell-Cisco inter-switch bottleneck.
var (
	hostLink       = simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6}
	uplinkLink     = simnet.LinkSpec{Capacity: simnet.Mbps(10000), Latency: 50e-6}
	bottleneckLink = simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6}
)

// builtin compiles one of the paper's six registered datasets.
func builtin(t *testing.T, name string) *topology.Dataset {
	t.Helper()
	d, err := scenario.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNetPipeIntraCluster(t *testing.T) {
	d := builtin(t, "B")
	res, err := NetPipe(d.Eng, d.Net, d.Hosts[0], d.Hosts[1], 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-A: ~890 Mbit/s within an Ethernet cluster.
	if math.Abs(res.MaxMbps-890) > 5 {
		t.Fatalf("intra-cluster NetPipe = %.1f Mbps, want ~890", res.MaxMbps)
	}
	if len(res.Points) < 10 {
		t.Fatalf("sweep has %d points, want a full doubling ladder", len(res.Points))
	}
	// Throughput is monotone-ish: the largest message achieves the max.
	last := res.Points[len(res.Points)-1]
	if last.Mbps < 0.95*res.MaxMbps {
		t.Fatalf("largest message reached %.1f of max %.1f", last.Mbps, res.MaxMbps)
	}
}

func TestNetPipeInterSite(t *testing.T) {
	d := builtin(t, "GT")
	res, err := NetPipe(d.Eng, d.Net, d.Hosts[0], d.Hosts[32], 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-A: ~787 Mbit/s between sites (Renater per-flow ceiling). The
	// ping-pong pays the WAN round-trip latency, so the measured value
	// sits a percent or two below the ceiling.
	if res.MaxMbps > 787.5 || res.MaxMbps < 770 {
		t.Fatalf("inter-site NetPipe = %.1f Mbps, want just below 787", res.MaxMbps)
	}
	// Small messages are latency-dominated: first point far below max.
	if res.Points[0].Mbps > res.MaxMbps/4 {
		t.Fatalf("1 KiB message reached %.1f Mbps; latency should dominate", res.Points[0].Mbps)
	}
}

func TestNetPipeLowVariance(t *testing.T) {
	// §II-C: unlike the BitTorrent metric, NetPIPE on an idle network is
	// essentially deterministic.
	d := builtin(t, "B")
	a, err := NetPipe(d.Eng, d.Net, d.Hosts[2], d.Hosts[3], 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NetPipe(d.Eng, d.Net, d.Hosts[2], d.Hosts[3], 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MaxMbps-b.MaxMbps) > 1e-6 {
		t.Fatalf("repeat NetPipe differs: %.3f vs %.3f", a.MaxMbps, b.MaxMbps)
	}
}

func TestPairwiseBlindToBottleneck(t *testing.T) {
	// The paper's core critique: isolated pairwise saturation sees the
	// full 890 Mbit/s on every Bordeaux pair and cannot find the
	// Dell-Cisco bottleneck. Use a reduced B-like dataset for speed.
	eng := sim.NewEngine()
	net := simnet.New(eng)
	router := net.AddSwitch("router")
	dell := net.AddSwitch("dell")
	cisco := net.AddSwitch("cisco")
	net.Connect(dell, cisco, bottleneckLink)
	net.Connect(cisco, router, uplinkLink)
	var hosts []int
	for i := 0; i < 8; i++ {
		h := net.AddHost("h")
		sw := dell
		if i >= 4 {
			sw = cisco
		}
		net.Connect(h, sw, hostLink)
		hosts = append(hosts, h)
	}
	rep, err := Pairwise(eng, net, hosts, probeMB, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 8*7/2 {
		t.Fatalf("Probes = %d, want %d", rep.Probes, 8*7/2)
	}
	// Every pair individually saturates at ~890.
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if w := rep.Bandwidth.Weight(i, j); math.Abs(w-890) > 10 {
				t.Fatalf("pair (%d,%d) measured %.1f Mbps, want ~890 (bottleneck invisible)", i, j, w)
			}
		}
	}
	if rep.Partition.NumClusters() != 1 {
		t.Fatalf("idle pairwise split the uniform-bandwidth graph into %d clusters", rep.Partition.NumClusters())
	}
}

func TestPairwiseLoadedFindsBottleneck(t *testing.T) {
	// Under background load the same O(N²) sweep does expose the
	// bottleneck — at quadratic measurement cost.
	eng := sim.NewEngine()
	net := simnet.New(eng)
	dell := net.AddSwitch("dell")
	cisco := net.AddSwitch("cisco")
	net.Connect(dell, cisco, bottleneckLink)
	var hosts []int
	truth := make([]int, 8)
	for i := 0; i < 8; i++ {
		h := net.AddHost("h")
		sw := dell
		if i >= 4 {
			sw = cisco
			truth[i] = 1
		}
		net.Connect(h, sw, hostLink)
		hosts = append(hosts, h)
	}
	rep, err := PairwiseLoaded(eng, net, hosts, probeMB, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	score := nmi.LFKPartition(truth, rep.Partition.Labels)
	if score < 0.99 {
		t.Fatalf("loaded pairwise NMI = %.3f, want 1 (it should find the bottleneck)", score)
	}
	if rep.MeasurementTime <= 0 {
		t.Fatal("no measurement time recorded")
	}
}

func TestPairwiseCostScalesQuadratically(t *testing.T) {
	cost := func(n int) (int, float64) {
		eng := sim.NewEngine()
		net := simnet.New(eng)
		sw := net.AddSwitch("sw")
		var hosts []int
		for i := 0; i < n; i++ {
			h := net.AddHost("h")
			net.Connect(h, sw, hostLink)
			hosts = append(hosts, h)
		}
		rep, err := Pairwise(eng, net, hosts, probeMB, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Probes, rep.MeasurementTime
	}
	p4, t4 := cost(4)
	p8, t8 := cost(8)
	if p4 != 6 || p8 != 28 {
		t.Fatalf("probe counts = %d,%d, want 6,28", p4, p8)
	}
	ratio := t8 / t4
	if ratio < 3.5 || ratio > 6 {
		t.Fatalf("time ratio 8/4 nodes = %.2f, want ~28/6", ratio)
	}
}

func TestTripletProbeCountCubic(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	sw := net.AddSwitch("sw")
	var hosts []int
	for i := 0; i < 5; i++ {
		h := net.AddHost("h")
		net.Connect(h, sw, hostLink)
		hosts = append(hosts, h)
	}
	rep, err := TripletInterference(eng, net, hosts, probeMB, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// n(n-1)/2 pairwise + n * C(n-1,2) triplets = 10 + 5*6 = 40.
	if rep.Probes != 40 {
		t.Fatalf("Probes = %d, want 40", rep.Probes)
	}
	if rep.MeasurementTime <= 0 {
		t.Fatal("no measurement time recorded")
	}
}

func TestTripletSeesNICInterferenceEverywhere(t *testing.T) {
	// On a flat cluster, both same-cluster and cross flows from one
	// source share that source's NIC, so triplet interference fires for
	// every triple — the masking effect documented in the package
	// comment. The similarity graph is then near-uniform.
	eng := sim.NewEngine()
	net := simnet.New(eng)
	sw := net.AddSwitch("sw")
	var hosts []int
	for i := 0; i < 4; i++ {
		h := net.AddHost("h")
		net.Connect(h, sw, hostLink)
		hosts = append(hosts, h)
	}
	rep, err := TripletInterference(eng, net, hosts, probeMB, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var minW, maxW = math.Inf(1), 0.0
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			w := rep.Bandwidth.Weight(a, b)
			minW = math.Min(minW, w)
			maxW = math.Max(maxW, w)
		}
	}
	if maxW == 0 {
		t.Fatal("no interference detected at all; NIC sharing should always interfere")
	}
	if (maxW-minW)/maxW > 0.25 {
		t.Fatalf("similarity spread [%.3f, %.3f] too wide for a flat cluster", minW, maxW)
	}
}

func TestErrorsOnDegenerateInputs(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	h := net.AddHost("h")
	if _, err := Pairwise(eng, net, []int{h}, probeMB, nil); err == nil {
		t.Error("Pairwise accepted a single host")
	}
	if _, err := TripletInterference(eng, net, []int{h, h}, probeMB, nil); err == nil {
		t.Error("Triplet accepted two hosts")
	}
}
