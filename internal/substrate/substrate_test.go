package substrate

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := Names()
	for _, want := range []string{"sim", "wire"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("builtin backend %q not registered (have %v)", want, names)
		}
	}
	simCaps, ok := Describe("sim")
	if !ok || !simCaps.Dynamics {
		t.Fatalf("sim capabilities = %+v, %v", simCaps, ok)
	}
	wireCaps, ok := Describe("wire")
	if !ok || wireCaps.Dynamics {
		t.Fatalf("wire capabilities = %+v, %v", wireCaps, ok)
	}
}

func TestCanonicalDefaultsToSim(t *testing.T) {
	if Canonical("") != "sim" {
		t.Fatalf(`Canonical("") = %q, want "sim"`, Canonical(""))
	}
	if Canonical("wire") != "wire" {
		t.Fatal("Canonical must not rewrite explicit names")
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	nop := func(Env) (Substrate, error) { return nil, nil }
	if err := Register("", Capabilities{}, nop); err == nil {
		t.Fatal("empty name registered")
	}
	if err := Register("dup-test", Capabilities{}, nil); err == nil {
		t.Fatal("nil factory registered")
	}
	if err := Register("dup-test", Capabilities{}, nop); err != nil {
		t.Fatal(err)
	}
	if err := Register("dup-test", Capabilities{}, nop); err == nil {
		t.Fatal("duplicate name registered — two meanings for one cache-key component")
	}
}

func TestNewUnknownBackend(t *testing.T) {
	_, err := New("carrier-pigeon", Env{})
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("err = %v, want the unknown name echoed", err)
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
	for i := range a.Fragments {
		for j := range a.Fragments[i] {
			if a.Fragments[i][j] != b.Fragments[i][j] {
				t.Fatalf("fragment count [%d][%d] differs: %d vs %d", i, j, a.Fragments[i][j], b.Fragments[i][j])
			}
		}
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
