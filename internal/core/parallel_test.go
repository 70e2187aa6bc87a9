package core

import (
	"math"
	"testing"

	"repro/internal/scenario"
)

// parallelTestOptions shrinks the broadcast so the full dataset sweep stays
// fast: determinism is a structural property, not a convergence one, so a
// small payload suffices.
func parallelTestOptions(iters, workers int) Options {
	opts := DefaultOptions()
	opts.Iterations = iters
	opts.BT.FileBytes = 300 * opts.BT.FragmentSize
	opts.Workers = workers
	return opts
}

// assertIdenticalResults compares two results field by field, bit-exact.
func assertIdenticalResults(t *testing.T, a, b *Result, la, lb string) {
	t.Helper()
	if a.Graph.N() != b.Graph.N() {
		t.Fatalf("%s has %d vertices, %s has %d", la, a.Graph.N(), lb, b.Graph.N())
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("%s has %d edges, %s has %d", la, len(ea), lb, len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %s %+v vs %s %+v", i, la, ea[i], lb, eb[i])
		}
	}
	if la, lb := a.Partition.Labels, b.Partition.Labels; len(la) != len(lb) {
		t.Fatalf("partition sizes differ: %d vs %d", len(la), len(lb))
	}
	for i := range a.Partition.Labels {
		if a.Partition.Labels[i] != b.Partition.Labels[i] {
			t.Fatalf("partition label %d differs: %d vs %d", i, a.Partition.Labels[i], b.Partition.Labels[i])
		}
	}
	if a.Q != b.Q {
		t.Fatalf("Q differs: %s %v vs %s %v", la, a.Q, lb, b.Q)
	}
	if a.NMI != b.NMI && !(math.IsNaN(a.NMI) && math.IsNaN(b.NMI)) {
		t.Fatalf("NMI differs: %s %v vs %s %v", la, a.NMI, lb, b.NMI)
	}
	if math.Float64bits(a.TotalMeasurementTime) != math.Float64bits(b.TotalMeasurementTime) {
		t.Fatalf("TotalMeasurementTime differs: %v vs %v", a.TotalMeasurementTime, b.TotalMeasurementTime)
	}
	if len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("iteration record counts differ: %d vs %d", len(a.Iterations), len(b.Iterations))
	}
	for i := range a.Iterations {
		ra, rb := a.Iterations[i], b.Iterations[i]
		if ra.Clustered != rb.Clustered || ra.Q != rb.Q {
			t.Fatalf("iteration %d clustering differs: %+v vs %+v", i+1, ra, rb)
		}
		if ra.NMI != rb.NMI && !(math.IsNaN(ra.NMI) && math.IsNaN(rb.NMI)) {
			t.Fatalf("iteration %d NMI differs: %v vs %v", i+1, ra.NMI, rb.NMI)
		}
	}
}

// TestParallelMatchesSequentialAllDatasets is the core determinism
// guarantee of the pipeline: for every built-in dataset, Workers=4
// reproduces Workers=1 bit-identically (graph weights, partition,
// per-iteration NMI, measurement time), and Workers=0 is Workers=1.
func TestParallelMatchesSequentialAllDatasets(t *testing.T) {
	for _, spec := range scenario.BuiltinSpecs() {
		name := spec.Name
		t.Run(name, func(t *testing.T) {
			run := func(workers int) *Result {
				res, err := RunDataset(builtin(t, name), parallelTestOptions(3, workers))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			zero, par1, par4 := run(0), run(1), run(4)
			assertIdenticalResults(t, par1, par4, "Workers=1", "Workers=4")
			assertIdenticalResults(t, zero, par1, "Workers=0", "Workers=1")
		})
	}
}

// TestParallelRotateRoot checks that root rotation composes with workers:
// the rotated runs are identical across worker counts and each iteration's
// root received nothing.
func TestParallelRotateRoot(t *testing.T) {
	run := func(workers int) *Result {
		opts := parallelTestOptions(4, workers)
		opts.RotateRoot = true
		res, err := RunDataset(builtin(t, "2x2"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par1, par4 := run(1), run(4)
	assertIdenticalResults(t, par1, par4, "Workers=1", "Workers=4")
	for k, rec := range par4.Iterations {
		for _, v := range rec.Broadcast.Fragments[k%4] {
			if v != 0 {
				t.Fatalf("iteration %d: rotated root received fragments", k+1)
			}
		}
	}
}

// TestParallelWindow checks that the sliding window composes with workers.
func TestParallelWindow(t *testing.T) {
	run := func(workers int) *Result {
		net, hosts, truth := smallDumbbell()
		opts := testOptions(5)
		opts.Window = 2
		opts.Workers = workers
		res, err := Run(net, hosts, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par1, par4 := run(1), run(4)
	assertIdenticalResults(t, par1, par4, "Workers=1", "Workers=4")
}

// TestParallelNegativeWorkersError rejects a nonsensical worker count.
func TestParallelNegativeWorkersError(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(1)
	opts.Workers = -1
	if _, err := Run(net, hosts, truth, opts); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestParallelActiveFlowsError: replication requires an idle network.
func TestParallelActiveFlowsError(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	net.StartFlow(hosts[0], hosts[1], 1e12, nil)
	eng := net.Engine()
	eng.RunUntil(eng.Now() + 1) // let the flow activate
	opts := testOptions(1)
	opts.Workers = 2
	if _, err := Run(net, hosts, truth, opts); err == nil {
		t.Fatal("Run with active flows did not error")
	}
}

// TestParallelPendingFlowsError: a flow that was started but has not yet
// activated (its path latency has not elapsed) makes the network just as
// non-idle — replicas would silently drop it.
func TestParallelPendingFlowsError(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	net.StartFlow(hosts[0], hosts[1], 1e12, nil)
	// Do NOT run the engine: the flow is pending, not active.
	opts := testOptions(1)
	opts.Workers = 2
	if _, err := Run(net, hosts, truth, opts); err == nil {
		t.Fatal("Run with a pending flow did not error")
	}
}

// TestParallelMoreWorkersThanIterations: the pool clamps to the iteration
// count instead of spawning idle goroutines.
func TestParallelMoreWorkersThanIterations(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(2)
	opts.Workers = 16
	res, err := Run(net, hosts, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("got %d iteration records, want 2", len(res.Iterations))
	}
}

// TestDiscardBroadcasts: dropping the raw instrumentation must not change
// the aggregated result, must nil out the records, and must compose with
// the sliding window (whose retirement keeps its own ring) and workers.
func TestDiscardBroadcasts(t *testing.T) {
	for _, workers := range []int{0, 4} {
		for _, window := range []int{0, 2} {
			run := func(discard bool) *Result {
				net, hosts, truth := smallDumbbell()
				opts := testOptions(5)
				opts.Workers = workers
				opts.Window = window
				opts.DiscardBroadcasts = discard
				res, err := Run(net, hosts, truth, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			kept, dropped := run(false), run(true)
			assertIdenticalResults(t, kept, dropped, "retained", "discarded")
			for i, rec := range dropped.Iterations {
				if rec.Broadcast != nil {
					t.Fatalf("workers=%d window=%d: iteration %d retained its broadcast", workers, window, i+1)
				}
			}
			for i, rec := range kept.Iterations {
				if rec.Broadcast == nil {
					t.Fatalf("workers=%d window=%d: iteration %d lost its broadcast without DiscardBroadcasts", workers, window, i+1)
				}
			}
		}
	}
}

// TestWindowEqualsShortRun cross-checks the ring-based retirement: after a
// windowed run, the final graph must equal what a cumulative run over only
// the last Window iterations would produce... which the pre-ring
// implementation guaranteed by construction. Here we assert the invariant
// the window is defined by: total weight equals the mean over exactly
// Window iterations of their exchanged fragments.
func TestWindowEqualsShortRun(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(5)
	opts.Window = 2
	res, err := Run(net, hosts, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	var last2 float64
	for _, rec := range res.Iterations[3:] {
		last2 += float64(rec.Broadcast.TotalFragments())
	}
	got := res.Graph.TotalWeight() * float64(opts.Window)
	if math.Abs(got-last2) > 1e-6*last2 {
		t.Fatalf("windowed graph holds %.1f fragments, want the last %d iterations' %.1f",
			got, opts.Window, last2)
	}
}
