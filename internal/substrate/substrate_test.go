package substrate

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestCheckBuiltins: the binary measures with exactly "sim" and "wire",
// and only "sim" replays a dynamics timeline.
func TestCheckBuiltins(t *testing.T) {
	if names := Names(); !slices.Equal(names, []string{"sim", "wire"}) {
		t.Fatalf("Names() = %v, want [sim wire]", names)
	}
	for _, name := range []string{"sim", "wire"} {
		if got, err := Check(name, false); got != name || err != nil {
			t.Fatalf("Check(%q, false) = %q, %v", name, got, err)
		}
	}
	if _, err := Check("sim", true); err != nil {
		t.Fatalf("sim refuses dynamics: %v", err)
	}
	if _, err := Check("wire", true); err == nil || !strings.Contains(err.Error(), "Dynamics") {
		t.Fatalf("Check(wire, dynamics) = %v, want the Dynamics conflict named", err)
	}
}

func TestCanonicalDefaultsToSim(t *testing.T) {
	if got, err := Check("", false); got != "sim" || err != nil {
		t.Fatalf(`Check("", false) = %q, %v, want "sim"`, got, err)
	}
	if got, err := Check("", true); got != "sim" || err != nil {
		t.Fatalf(`Check("", true) = %q, %v, want "sim"`, got, err)
	}
}

func TestNewUnknownBackend(t *testing.T) {
	_, err := New("carrier-pigeon", Env{})
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("err = %v, want the unknown name echoed", err)
	}
	if got, err := Check("carrier-pigeon", false); got != "carrier-pigeon" || err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("Check = %q, %v, want the unknown name echoed", got, err)
	}
}

// twoHostEnv compiles a minimal two-host network for substrate smoke
// tests.
func twoHostEnv(t *testing.T) Env {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng)
	a := net.AddHost("a")
	b := net.AddHost("b")
	net.Connect(a, b, simnet.LinkSpec{Capacity: simnet.Mbps(100), Latency: 1e-4})
	return Env{Net: net, Hosts: []int{a, b}, Seed: 1, Workers: 1}
}

// TestSimMeasureDeterministic: the sim substrate's Measure is a pure
// function of its request — two substrates over the same env, handed
// identically seeded streams, return identical fragment counts.
func TestSimMeasureDeterministic(t *testing.T) {
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes = 10 * cfg.FragmentSize
	measure := func() *bittorrent.Result {
		env := twoHostEnv(t)
		s, err := New("sim", env)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := sim.NewRNG(7)
		res, err := s.Measure(context.Background(), Request{
			Iter: 1, Config: cfg, Hosts: env.Hosts, RNG: rng.Streamf("broadcast", 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := measure(), measure()
	if !slices.Equal(a.Pairs, b.Pairs) {
		t.Fatalf("fragment counts differ: %v vs %v", a.Pairs, b.Pairs)
	}
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
}

func smallConfig() bittorrent.Config {
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes = 10 * cfg.FragmentSize
	return cfg
}

// TestSimMeasureCanceledContext: once the run's context is cancelled (one
// iteration failed), a worker must not simulate another whole broadcast.
func TestSimMeasureCanceledContext(t *testing.T) {
	env := twoHostEnv(t)
	s, err := New("sim", env)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Iter: 1, Config: smallConfig(), Hosts: env.Hosts, RNG: sim.NewRNG(7).Streamf("broadcast", 1)}
	if _, err := s.Measure(ctx, req); err != context.Canceled {
		t.Fatalf("Measure under a cancelled context returned %v, want context.Canceled", err)
	}
	if _, err := s.Measure(context.Background(), req); err != nil {
		t.Fatalf("Measure after a refused one: %v", err)
	}
}

// TestWireMeasureCanceledContext: a canceled context must fail the
// measurement promptly and cleanly, not hang on socket completion.
func TestWireMeasureCanceledContext(t *testing.T) {
	env := twoHostEnv(t)
	s, err := New("wire", env)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := sim.NewRNG(7)
	_, err = s.Measure(ctx, Request{
		Iter:   1,
		Config: smallConfig(),
		Hosts:  env.Hosts,
		RNG:    rng.Streamf("broadcast", 1),
	})
	if err == nil {
		t.Fatal("canceled context measured successfully")
	}
}
