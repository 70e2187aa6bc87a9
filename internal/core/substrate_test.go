package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/scenario"
	"repro/internal/substrate"
)

// Naming the sim backend explicitly, at any worker count, reproduces the
// default run bit-for-bit (the same contract
// TestParallelMatchesSequentialAllDatasets pins for the default).
func TestSimBackendExplicitMatchesSequential(t *testing.T) {
	run := func(backend string, workers int) *Result {
		opts := parallelTestOptions(3, workers)
		opts.Backend = backend
		res, err := RunDataset(builtin(t, "2x2"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run("", 0)
	sim1 := run("sim", 1)
	sim4 := run("sim", 4)
	assertIdenticalResults(t, sim1, sim4, `Backend "sim" Workers=1`, `Backend "sim" Workers=4`)
	assertIdenticalResults(t, def, sim1, "default", `Backend "sim" Workers=1`)
}

// TestWireBackendClustersTwoSites runs the real-TCP backend on the
// 4-host, 2-site contrast spec and requires it to cluster no worse than
// the simulator on the same scenario — the minimum bar for the wire
// substrate to be a usable measurement instrument.
func TestWireBackendClustersTwoSites(t *testing.T) {
	if testing.Short() {
		t.Skip("wire backend moves real bytes through real sockets")
	}
	run := func(backend string) *Result {
		d, err := scenario.NSites(2, 2, 900, 25).Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Backend = backend
		opts.Iterations = 3
		opts.ClusterEvery = 0
		opts.BT.FileBytes = 96 * opts.BT.FragmentSize
		res, err := RunDataset(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sim, wire := run("sim"), run("wire")
	if wire.NMI < sim.NMI {
		t.Fatalf("wire backend clusters worse than sim: NMI %v vs %v", wire.NMI, sim.NMI)
	}
	if wire.Graph.TotalWeight() <= 0 {
		t.Fatal("wire backend measured an empty graph")
	}
}

// Backend validation must reject an unknown substrate before any
// measurement starts (TestWireBackendRejectsDynamics covers what the wire
// substrate cannot honour).
func TestBackendValidation(t *testing.T) {
	net, hosts, truth := smallDumbbell()

	opts := testOptions(1)
	opts.Backend = "carrier-pigeon"
	if _, err := Run(net, hosts, truth, opts); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("unknown backend: err = %v, want it named", err)
	}
}

// TestWireBackendRejectsDynamics: a spec with a dynamics timeline cannot
// run on the wire backend (real swarms have no scripted topology), and
// the refusal happens at validation, not mid-measurement.
func TestWireBackendRejectsDynamics(t *testing.T) {
	d, err := scenario.DriftSites(2, 3, 890, 100, 0.5).Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(2)
	opts.Backend = "wire"
	_, err = RunDataset(d, opts)
	if err == nil || !strings.Contains(err.Error(), "Dynamics") {
		t.Fatalf("wire+dynamics: err = %v, want the Dynamics conflict named", err)
	}
}

// failingSubstrate measures nothing and fails every request — the stand-in
// for a wire iteration that times out or tears mid-swarm.
type failingSubstrate struct{}

func (failingSubstrate) Close() error { return nil }
func (failingSubstrate) Measure(context.Context, substrate.Request) (*bittorrent.Result, error) {
	return nil, errors.New("substrate torn mid-measurement")
}

func init() {
	substrate.Register("failing", substrate.Capabilities{}, func(substrate.Env) (substrate.Substrate, error) {
		return failingSubstrate{}, nil
	})
}

// TestFailingBackendFailsRun: a substrate error is a run failure naming
// the iteration — never a silent partial result.
func TestFailingBackendFailsRun(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(3)
	opts.Backend = "failing"
	res, err := Run(net, hosts, truth, opts)
	if err == nil {
		t.Fatal("failing substrate produced a result")
	}
	if res != nil {
		t.Fatal("failing substrate returned a partial result alongside its error")
	}
	if !strings.Contains(err.Error(), "iteration") || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("err = %v, want the iteration and cause named", err)
	}
}
