package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/substrate"
	"repro/internal/topology"
)

// testOptions shrinks the broadcast so pipeline tests run in milliseconds.
func testOptions(iters int) Options {
	opts := DefaultOptions()
	opts.Iterations = iters
	opts.BT.FileBytes = 1500 * opts.BT.FragmentSize
	return opts
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

// remeasure measures the broadcast of iteration rec of a run with opts over
// hosts once more, through the sim substrate directly, handing it what
// measure would: the iteration's hosts, broadcast configuration and RNG
// stream. A Result keeps no broadcast, so this is how a test looks at one;
// rec's Duration and Flows must match.
func remeasure(t *testing.T, net *simnet.Network, hosts []int, opts Options, rec IterationRecord) *bittorrent.Result {
	t.Helper()
	plans, err := planIterations(opts.Dynamics, hosts, opts)
	if err != nil {
		t.Fatal(err)
	}
	it, iterHosts := rec.Iteration, hosts
	if plans != nil {
		iterHosts = plans[it].hosts
	}
	sub, err := substrate.New("sim", substrate.Env{Net: net, Hosts: hosts, Timeline: opts.Dynamics, Seed: opts.Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	bres, err := sub.Measure(context.Background(), substrate.Request{
		Iter:   it,
		Hosts:  iterHosts,
		Config: broadcastConfig(opts, it, len(iterHosts)),
		RNG:    sim.NewRNG(opts.Seed).Streamf("broadcast", it),
	})
	if err != nil {
		t.Fatal(err)
	}
	if bres.Duration != rec.Duration || bres.Flows != rec.Flows {
		t.Fatalf("iteration %d measured again: duration %v, %d flows; the run recorded %v, %d",
			rec.Iteration, bres.Duration, bres.Flows, rec.Duration, rec.Flows)
	}
	return bres
}

// smallDumbbell builds a 2x6-node WAN-divided network with truth labels:
// a 10 Gbit/s core whose 5 ms one-way latency caps per-connection
// BitTorrent throughput (the request-pipeline effect), which is the
// separation signal the paper's metric picks up between sites.
func smallDumbbell() (*simnet.Network, []int, []int) {
	net := simnet.New(sim.NewEngine())
	s1 := net.AddSwitch("s1")
	s2 := net.AddSwitch("s2")
	net.Connect(s1, s2, simnet.LinkSpec{Capacity: simnet.Gbps(10), Latency: 5e-3})
	var hosts []int
	truth := make([]int, 12)
	for i := 0; i < 12; i++ {
		h := net.AddHost("h")
		sw := s1
		if i >= 6 {
			sw = s2
			truth[i] = 1
		}
		net.Connect(h, sw, simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6})
		hosts = append(hosts, h)
	}
	return net, hosts, truth
}

func TestRunProducesPerIterationRecords(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	res, err := Run(net, hosts, truth, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 4 {
		t.Fatalf("%d iteration records, want 4", len(res.Iterations))
	}
	for i, rec := range res.Iterations {
		if rec.Iteration != i+1 {
			t.Fatalf("record %d has iteration %d", i, rec.Iteration)
		}
		if !rec.Clustered {
			t.Fatalf("iteration %d not clustered despite ClusterEvery=1", i+1)
		}
		if math.IsNaN(rec.NMI) {
			t.Fatalf("iteration %d NMI is NaN despite ground truth", i+1)
		}
		if rec.Duration <= 0 || rec.Flows == 0 {
			t.Fatalf("iteration %d missing its broadcast's duration (%v) or flows (%d)", i+1, rec.Duration, rec.Flows)
		}
	}
	if res.Graph == nil || res.Graph.N() != 12 {
		t.Fatal("final graph missing")
	}
	if res.TotalMeasurementTime <= 0 {
		t.Fatal("no measurement time accumulated")
	}
}

func TestSeparatesBottleneckedGroups(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	res, err := Run(net, hosts, truth, testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.NMI < 0.99 {
		t.Fatalf("final NMI = %.3f, want 1 (the WAN divider should separate the groups)", res.NMI)
	}
	if res.Partition.NumClusters() != 2 {
		t.Fatalf("found %d clusters, want 2", res.Partition.NumClusters())
	}
}

func TestMetricIsMeanOverIterations(t *testing.T) {
	// Eq. 2: the final graph's total weight times the iteration count
	// equals the total exchanged fragments over all iterations.
	net, hosts, truth := smallDumbbell()
	iters := 3
	opts := testOptions(iters)
	res, err := Run(net, hosts, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	var totalFrags float64
	for _, rec := range res.Iterations {
		totalFrags += float64(remeasure(t, net, hosts, opts, rec).TotalFragments())
	}
	got := res.Graph.TotalWeight() * float64(iters)
	if math.Abs(got-totalFrags) > 1e-6*totalFrags {
		t.Fatalf("mean graph weight*iters = %.1f, want %.1f fragments", got, totalFrags)
	}
}

func TestNMIImprovesWithIterations(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	res, err := Run(net, hosts, truth, testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Iterations[0].NMI
	last := res.Iterations[len(res.Iterations)-1].NMI
	if last < first-1e-9 {
		t.Fatalf("NMI deteriorated from %.3f to %.3f with more iterations", first, last)
	}
}

func TestClusterEverySkips(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(5)
	opts.ClusterEvery = 2
	res, err := Run(net, hosts, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantClustered := map[int]bool{2: true, 4: true, 5: true} // every 2nd + final
	for _, rec := range res.Iterations {
		if rec.Clustered != wantClustered[rec.Iteration] {
			t.Fatalf("iteration %d clustered=%v, want %v", rec.Iteration, rec.Clustered, wantClustered[rec.Iteration])
		}
	}
}

func TestNoTruthGivesNaN(t *testing.T) {
	net, hosts, _ := smallDumbbell()
	res, err := Run(net, hosts, nil, testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.NMI) {
		t.Fatalf("NMI = %g without truth, want NaN", res.NMI)
	}
	if res.Partition.N() != 12 {
		t.Fatal("clustering should still run without truth")
	}
}

func TestRotateRoot(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(3)
	opts.RotateRoot = true
	res, err := Run(net, hosts, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With rotation, iteration k's root is host k-1, which receives 0.
	for k, rec := range res.Iterations {
		assertRootReceivedNothing(t, remeasure(t, net, hosts, opts, rec), k)
	}
}

// assertRootReceivedNothing fails if host root of bres received a fragment.
func assertRootReceivedNothing(t *testing.T, bres *bittorrent.Result, root int) {
	t.Helper()
	for s := 0; s < bres.N; s++ {
		if bres.Sent(s, root) != 0 {
			t.Fatalf("root %d received %d fragments from %d", root, bres.Sent(s, root), s)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		net, hosts, truth := smallDumbbell()
		res, err := Run(net, hosts, truth, testOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Q != b.Q || a.NMI != b.NMI {
		t.Fatalf("replay differs: Q %g vs %g, NMI %g vs %g", a.Q, b.Q, a.NMI, b.NMI)
	}
	if math.Abs(a.Graph.TotalWeight()-b.Graph.TotalWeight()) > 1e-9 {
		t.Fatal("replay graphs differ")
	}
}

func TestSeedChangesMeasurement(t *testing.T) {
	run := func(seed int64) float64 {
		net, hosts, truth := smallDumbbell()
		opts := testOptions(2)
		opts.Seed = seed
		res, err := Run(net, hosts, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph.TotalWeight()
	}
	// Total weight is conserved; compare edge sets instead via Q of a
	// fixed partition... simplest: durations differ.
	runDur := func(seed int64) float64 {
		net, hosts, truth := smallDumbbell()
		opts := testOptions(2)
		opts.Seed = seed
		res, err := Run(net, hosts, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMeasurementTime
	}
	_ = run
	if runDur(1) == runDur(2) {
		t.Fatal("different seeds gave identical measurement timings")
	}
}

func TestOptionValidation(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(0)
	if _, err := Run(net, hosts, truth, opts); err == nil {
		t.Error("accepted 0 iterations")
	}
	opts = testOptions(1)
	opts.TopFraction = 1.5
	if _, err := Run(net, hosts, truth, opts); err == nil {
		t.Error("accepted TopFraction > 1")
	}
	if _, err := Run(net, hosts[:1], truth[:1], testOptions(1)); err == nil {
		t.Error("accepted single host")
	}
	if _, err := Run(net, hosts, truth[:3], testOptions(1)); err == nil {
		t.Error("accepted truth/host length mismatch")
	}
	bad := testOptions(1)
	bad.BT.UploadSlots = 0
	if _, err := Run(net, hosts, truth, bad); err == nil {
		t.Error("accepted invalid BitTorrent config")
	}
}

func TestTopFractionFiltersGraph(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(3)
	opts.TopFraction = 0.5
	res, err := Run(net, hosts, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	net2, hosts2, truth2 := smallDumbbell()
	full, err := Run(net2, hosts2, truth2, testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.EdgeCount() >= full.Graph.EdgeCount() {
		t.Fatalf("TopFraction=0.5 kept %d edges vs %d unfiltered",
			res.Graph.EdgeCount(), full.Graph.EdgeCount())
	}
}

func TestRunDatasetTwoByTwo(t *testing.T) {
	// §IV-B1: the 2x2 experiment yields a single logical cluster.
	res, err := RunDataset(builtin(t, "2x2"), testOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.NumClusters() != 1 {
		t.Fatalf("2x2 found %d clusters, want 1 (no bottleneck at this scale)", res.Partition.NumClusters())
	}
	if res.NMI < 0.99 {
		t.Fatalf("2x2 NMI = %.3f, want 1", res.NMI)
	}
}

func TestGraphLabelsAreHostNames(t *testing.T) {
	res, err := RunDataset(builtin(t, "2x2"), testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Label(0) != "bordeplage-0" {
		t.Fatalf("graph label = %q, want bordeplage-0", res.Graph.Label(0))
	}
}

// Guard against drift in the default options, which encode the paper's
// protocol parameters.
func TestDefaultOptionsMatchPaper(t *testing.T) {
	opts := DefaultOptions()
	if opts.Iterations != 30 {
		t.Fatalf("default iterations = %d, want 30", opts.Iterations)
	}
	if opts.BT.FileBytes != bittorrent.DefaultFileBytes {
		t.Fatal("default file size is not the paper's 239 MB")
	}
	if opts.BT.NumFragments() != 15259 {
		t.Fatalf("default fragments = %d, want 15259", opts.BT.NumFragments())
	}
}
