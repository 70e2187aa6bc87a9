package substrate_test

// Tests of the sim substrate's replica reuse against compiled scenarios.
// They live outside package substrate because scenario imports core, which
// imports substrate.

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/topology"
)

// skipUnderRace skips a test that counts allocations: the race detector's
// instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
}

func compile(t *testing.T, spec *scenario.Spec) *topology.Dataset {
	t.Helper()
	d, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func builtin(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	spec, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("no builtin scenario %q", name)
	}
	return spec
}

// request is iteration it of a run over d at 5% of the paper's payload, the
// way core.measure would hand it to the substrate.
func request(d *topology.Dataset, it int) substrate.Request {
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes /= 20
	hosts := d.Hosts
	if active := d.Timeline.ActiveHosts(it); active != nil {
		hosts = make([]int, len(active))
		for i, a := range active {
			hosts[i] = d.Hosts[a]
		}
	}
	cfg.Root = (it - 1) % len(hosts)
	return substrate.Request{Iter: it, Hosts: hosts, Config: cfg, RNG: sim.NewRNG(7).Streamf("broadcast", it)}
}

func newSim(t *testing.T, d *topology.Dataset) substrate.Substrate {
	t.Helper()
	s, err := substrate.New("sim", substrate.Env{Net: d.Net, Hosts: d.Hosts, Timeline: d.Timeline, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSimReusedReplicaMatchesPerIterationClone: six iterations through one
// substrate — one replica, reset and reused — must measure exactly what six
// substrates that each clone a fresh replica measure, with a dynamics
// timeline (link drift, a failure, churn, a burst left running at the end
// of its iteration) and without.
func TestSimReusedReplicaMatchesPerIterationClone(t *testing.T) {
	for name, spec := range map[string]*scenario.Spec{
		"DriftSites": scenario.DriftSites(3, 6, 890, 100, 0.5),
		"BGTL":       builtin(t, "BGTL"),
	} {
		d := compile(t, spec)
		reused := newSim(t, d)
		for it := 1; it <= 6; it++ {
			got, err := reused.Measure(context.Background(), request(d, it))
			if err != nil {
				t.Fatalf("%s iteration %d: %v", name, it, err)
			}
			want, err := newSim(t, d).Measure(context.Background(), request(d, it))
			if err != nil {
				t.Fatalf("%s iteration %d on a fresh substrate: %v", name, it, err)
			}
			if !reflect.DeepEqual(got.Fragments, want.Fragments) {
				t.Fatalf("%s iteration %d: fragment counts differ between a reused and a fresh replica", name, it)
			}
			if !reflect.DeepEqual(got.CompletionTimes, want.CompletionTimes) || got.Duration != want.Duration {
				t.Fatalf("%s iteration %d: completion times differ between a reused and a fresh replica (duration %v vs %v)",
					name, it, got.Duration, want.Duration)
			}
			if got.Flows != want.Flows {
				t.Fatalf("%s iteration %d: %d flows on a reused replica, %d on a fresh one", name, it, got.Flows, want.Flows)
			}
		}
	}
}

// TestWarmMeasureAllocBudget holds the zero-garbage iteration in tier-1: on
// the reference run's options (BGTL, 64 hosts, 5% payload) the third
// Measure of a substrate — routes cached, event and flow pools filled, the
// swarm's storage kept on the replica — allocates its Result, plus a route
// or some scratch when this broadcast is the first to need it, and nothing
// per peer, connection, request, rechoke or flow. Before replica reuse and
// pooling it was about 52,700 allocations; before the swarm's storage was
// kept, 168 allocations and 1,108,328 bytes.
func TestWarmMeasureAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const (
		budget      = 32
		bytesBudget = 128 << 10
	)
	d := compile(t, builtin(t, "BGTL"))
	s := newSim(t, d)
	measure := func(it int) {
		if _, err := s.Measure(context.Background(), request(d, it)); err != nil {
			t.Fatal(err)
		}
	}
	measure(1)
	measure(2)
	req := request(d, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Measure(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("third Measure: %d allocations, %d bytes", allocs, bytes)
	if allocs > budget {
		t.Errorf("the third Measure allocates %d times, budget %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("the third Measure allocates %d bytes, budget %d", bytes, bytesBudget)
	}
}
