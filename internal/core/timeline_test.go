package core

// Tests for the network-dynamics subsystem threaded through the
// measurement pipeline: scripted link drift, failures, bursts and host
// churn replayed per iteration, with bit-identical results for any
// worker count.

import (
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/nmi"
	"repro/internal/scenario"
)

// driftSpec builds a two-site scenario exercising every event kind: the
// WAN chokes from iteration 2, a burst crosses it, one host leaves and
// later rejoins, and the left uplink transiently fails in iteration 4.
func driftSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.NewBuilder("drift-test").
		Link("eth", 890, 50e-6).
		Link("wan", 890, 200e-6).
		Switch("core").
		FlatSite("left", "core", 4, "eth", "wan").
		FlatSite("right", "core", 4, "eth", "wan").
		LinkScale(2, "wan", 0.1).
		Burst(2, 0.5, "left-0", "right-0", 16).
		HostLeave(3, "right-3").
		LinkDown(4, 0.5, "left-sw|core").
		LinkUp(4, 2.5, "left-sw|core").
		HostJoin(5, "right-3").
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func dynamicsOptions(iters, workers int) Options {
	opts := DefaultOptions()
	opts.Iterations = iters
	opts.BT.FileBytes = 600 * opts.BT.FragmentSize
	opts.Workers = workers
	return opts
}

// TestDynamicsBitIdenticalAcrossWorkers is the subsystem's determinism
// guarantee: a timeline with every event kind produces bit-identical
// results for Workers 0, 1 and 4 — including the per-iteration
// active-host sets.
func TestDynamicsBitIdenticalAcrossWorkers(t *testing.T) {
	spec := driftSpec(t)
	run := func(workers int, rotate bool) *Result {
		d, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts := dynamicsOptions(6, workers)
		opts.RotateRoot = rotate
		res, err := RunDataset(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par1, par4 := run(0, false), run(1, false), run(4, false)
	assertIdenticalResults(t, par1, par4, "Workers=1", "Workers=4")
	assertIdenticalResults(t, seq, par1, "Workers=0", "Workers=1")
	for i := range par1.Iterations {
		a, b := par1.Iterations[i].ActiveHosts, par4.Iterations[i].ActiveHosts
		if len(a) != len(b) {
			t.Fatalf("iteration %d: active sets differ: %v vs %v", i+1, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("iteration %d: active sets differ: %v vs %v", i+1, a, b)
			}
		}
	}
	// Root rotation composes with churn: the root is an index into each
	// iteration's active host list.
	rot1, rot4 := run(1, true), run(4, true)
	assertIdenticalResults(t, rot1, rot4, "rotate Workers=1", "rotate Workers=4")
}

// TestDynamicsLinkScaleReshapesClustering is the headline behaviour: the
// same base fabric measures as one flat cluster statically, and as two
// clusters once the timeline chokes the interconnect.
func TestDynamicsLinkScaleReshapesClustering(t *testing.T) {
	build := func(choke bool) *scenario.Spec {
		b := scenario.NewBuilder("reshape").
			Link("eth", 890, 50e-6).
			Link("fast", 10000, 50e-6).
			Switch("core").
			FlatSite("left", "core", 6, "eth", "fast").
			FlatSite("right", "core", 6, "eth", "fast")
		if choke {
			// 10 Gbit/s -> 50 Mbit/s from the first iteration.
			b.LinkScale(1, "fast", 0.005)
		}
		s, err := b.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(spec *scenario.Spec) *Result {
		d, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Iterations = 8
		opts.BT.FileBytes = 3000 * opts.BT.FragmentSize
		opts.ClusterEvery = 0
		res, err := RunDataset(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(build(false))
	if static.Partition.NumClusters() != 1 && static.Q > 0.05 {
		t.Fatalf("static fabric: clusters=%d Q=%.3f, want one flat cluster or negligible Q",
			static.Partition.NumClusters(), static.Q)
	}
	choked := run(build(true))
	if choked.NMI < 0.99 || choked.Partition.NumClusters() != 2 {
		t.Fatalf("choked fabric: NMI=%.3f clusters=%d, want the two sites split",
			choked.NMI, choked.Partition.NumClusters())
	}
}

// TestDynamicsChurnScoresActiveHosts checks the membership plumbing: a
// departed host broadcasts in no further iteration, its record says so,
// and NMI is scored over the hosts present.
func TestDynamicsChurnScoresActiveHosts(t *testing.T) {
	spec, err := scenario.NewBuilder("churn").
		Link("eth", 890, 50e-6).
		Link("wan", 50, 4e-3).
		Switch("core").
		FlatSite("left", "core", 6, "eth", "wan").
		FlatSite("right", "core", 6, "eth", "wan").
		HostLeave(2, "right-5").
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := dynamicsOptions(4, 2)
	opts.BT.FileBytes = 3000 * opts.BT.FragmentSize
	opts.Dynamics = d.Timeline
	res, err := RunDataset(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations[0].ActiveHosts != nil {
		t.Fatalf("iteration 1 should include all 12 hosts, got active=%v", res.Iterations[0].ActiveHosts)
	}
	for _, rec := range res.Iterations[1:] {
		if len(rec.ActiveHosts) != 11 {
			t.Fatalf("iteration %d: active=%v, want 11 hosts without right-5", rec.Iteration, rec.ActiveHosts)
		}
		if n := remeasure(t, d.Net, d.Hosts, opts, rec).N; n != 11 {
			t.Fatalf("iteration %d broadcast over %d hosts, want 11", rec.Iteration, n)
		}
		for _, a := range rec.ActiveHosts {
			if a == 11 {
				t.Fatalf("iteration %d: departed host still active", rec.Iteration)
			}
		}
	}
	// The reported NMI is the LFK score restricted to the active hosts.
	final := res.Iterations[len(res.Iterations)-1]
	truth := make([]int, 0, 11)
	found := make([]int, 0, 11)
	for _, a := range final.ActiveHosts {
		truth = append(truth, d.GroundTruth[a])
		found = append(found, res.Partition.Labels[a])
	}
	if want := nmi.LFKPartition(truth, found); res.NMI != want {
		t.Fatalf("final NMI = %v, want the active-host-restricted score %v", res.NMI, want)
	}
	if res.NMI < 0.99 {
		t.Fatalf("NMI over active hosts = %.3f, want ~1 (sites still separated)", res.NMI)
	}
}

// TestDynamicsBurstPerturbsOnlyItsIteration: a burst is transient —
// iterations before and after it reproduce the static run bit-for-bit,
// while the burst's own iteration measures differently.
func TestDynamicsBurstPerturbsOnlyItsIteration(t *testing.T) {
	build := func(burst bool) *scenario.Spec {
		b := scenario.NewBuilder("bursty").
			Link("eth", 890, 50e-6).
			Link("wan", 50, 4e-3).
			Switch("core").
			FlatSite("left", "core", 4, "eth", "wan").
			FlatSite("right", "core", 4, "eth", "wan")
		if burst {
			b.Burst(2, 0.5, "left-0", "right-0", 64)
		}
		s, err := b.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(spec *scenario.Spec) *Result {
		d, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDataset(d, dynamicsOptions(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static, bursty := run(build(false)), run(build(true))
	same := func(i int) bool {
		a, b := static.Iterations[i], bursty.Iterations[i]
		return a.Duration == b.Duration && a.Flows == b.Flows
	}
	if !same(0) || !same(2) {
		t.Fatal("iterations without the burst diverged from the static run")
	}
	if same(1) {
		t.Fatal("the burst's iteration measured identically to the static run")
	}
}

// TestDynamicsFixedRootMustFitChurnedSwarm: a fixed broadcast root that
// indexes past the smallest active host set is rejected before any
// measurement runs, not mid-run at the churned iteration.
func TestDynamicsFixedRootMustFitChurnedSwarm(t *testing.T) {
	d, err := driftSpec(t).Compile() // 8 hosts, 7 while right-3 is away
	if err != nil {
		t.Fatal(err)
	}
	opts := dynamicsOptions(6, 1)
	opts.BT.Root = 7 // valid for 8 hosts, out of range for the churned 7
	if _, err := RunDataset(d, opts); err == nil || !strings.Contains(err.Error(), "churned swarm") {
		t.Fatalf("err = %v, want an up-front root-out-of-range rejection", err)
	}
	// With rotation the root is derived per iteration and stays in range.
	opts.RotateRoot = true
	if _, err := RunDataset(d, opts); err != nil {
		t.Fatalf("RotateRoot over a churned swarm: %v", err)
	}
}

func TestDynamicsHostCountMismatchRejected(t *testing.T) {
	// A timeline compiled for one scenario cannot drive a run over a
	// different host set.
	d8, err := driftSpec(t).Compile()
	if err != nil {
		t.Fatal(err)
	}
	other, err := scenario.NSites(2, 3, 890, 100).Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := dynamicsOptions(2, 0)
	opts.Dynamics = d8.Timeline
	if _, err := RunDataset(other, opts); err == nil {
		t.Fatal("host-count mismatch between timeline and run was accepted")
	}
}

// TestDynamicsWindowComposition: the sliding window retires churned
// iterations with the same index mapping that added them, so a windowed
// dynamic run still merges bit-identically across worker counts.
func TestDynamicsWindowComposition(t *testing.T) {
	spec := driftSpec(t)
	run := func(workers int) *Result {
		d, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts := dynamicsOptions(6, workers)
		opts.Window = 2
		res, err := RunDataset(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	assertIdenticalResults(t, run(1), run(4), "window Workers=1", "window Workers=4")
}

// TestDynamicsValidateSurfacesTimelineErrors: a structurally invalid
// timeline is rejected at spec validation, not at run time.
func TestDynamicsValidateSurfacesTimelineErrors(t *testing.T) {
	_, err := scenario.NewBuilder("bad").
		Link("eth", 890, 50e-6).
		Switch("sw").
		Hosts("h", 4, "sw", "eth", "all").
		Dynamic(dynamics.Event{Iter: 1, Kind: dynamics.LinkScale, Target: "nosuch", Param: 2}).
		Spec()
	if err == nil {
		t.Fatal("unknown link target validated")
	}
}
