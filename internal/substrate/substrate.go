// Package substrate makes the measurement layer pluggable: the paper's
// tomography inference consumes fragment-exchange counts, and nothing
// about the aggregation, clustering or NMI scoring cares whether those
// counts came from a simulated network or from real sockets. A Substrate
// is one way of executing a broadcast iteration and harvesting its
// counts; the core pipeline fans iterations out over whichever substrate
// the run selected and merges the per-iteration results identically.
//
// Two substrates are built in:
//
//   - "sim" — the discrete-event fluid simulator, measuring each
//     iteration on a private engine+network replica. It is the default,
//     fully deterministic (identical bytes for any worker count), and
//     supports every option the pipeline has, dynamics timelines
//     included.
//
//   - "wire" — real BitTorrent over loopback TCP (internal/wire): one
//     instrumented client per host, pieces exchanged over actual
//     sockets, per-pair upload pacing derived from the scenario
//     topology's bottleneck capacities so the declared bandwidth
//     contrast shapes the real traffic. Wire measurements are real and
//     therefore only best-effort reproducible (seeded protocol RNG, but
//     scheduler and network timing leak in); they reject options they
//     cannot honor (dynamics timelines).
//
// Substrates register by name; core.Options.Backend selects one, and the
// campaign layer sweeps the choice as a content-hashed axis.
package substrate

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/bittorrent"
	"repro/internal/dynamics"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Capabilities declares what a substrate can honor. The core pipeline
// validates a run's options against them before measuring, so an
// unsupported combination fails fast instead of silently measuring the
// wrong thing.
type Capabilities struct {
	// Dynamics reports whether the substrate can replay a scripted
	// network-dynamics timeline per iteration.
	Dynamics bool
}

// Request is one measurement iteration handed to a substrate.
type Request struct {
	// Iter is the 1-based iteration number.
	Iter int
	// Hosts are the network vertex ids broadcasting this iteration (the
	// run's full host list, or the churned subset under dynamics).
	Hosts []int
	// Config is the iteration's broadcast configuration; its Root indexes
	// Hosts.
	Config bittorrent.Config
	// RNG is the iteration's private deterministic stream. Deterministic
	// substrates drive all protocol randomness from it; real-socket
	// substrates seed their best-effort protocol RNG from it.
	RNG *rand.Rand
}

// Env is the run-wide context a substrate is constructed with.
type Env struct {
	// Net is the compiled scenario network. The sim substrate replicates
	// it per concurrent iteration; the wire substrate derives its
	// per-pair pacing matrix from its path capacities.
	Net *simnet.Network
	// Hosts is the run's full host list (vertex ids).
	Hosts []int
	// Timeline is the dynamics schedule to replay per iteration; nil for
	// static runs. Construction fails when the substrate cannot honor a
	// non-empty timeline.
	Timeline *dynamics.Timeline
	// Seed is the run seed (Options.Seed), for substrate-level salting.
	Seed int64
	// Workers is the measurement fan-out the run will drive this
	// substrate with; substrates holding real resources (ports,
	// sockets) bound their internal concurrency with it.
	Workers int
	// Trace, when non-nil, receives substrate-internal phase spans
	// (replica preparation, dynamics replay). Observability only; nil is a
	// valid tracer whose recording is a no-op.
	Trace *telemetry.Tracer
}

// Substrate executes measurement iterations.
type Substrate interface {
	// Measure runs one broadcast iteration and returns its fragment
	// instrumentation. Implementations must be safe for concurrent calls
	// (the pipeline issues Workers at once) and must respect
	// ctx cancellation.
	Measure(ctx context.Context, req Request) (*bittorrent.Result, error)
	// Close releases substrate-held resources after the run.
	Close() error
}

// Factory builds a substrate for one run.
type Factory func(Env) (Substrate, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
	caps      = map[string]Capabilities{}
)

// Register adds a named substrate factory. Registering a duplicate name
// is an error: backend names enter campaign cache keys, so two meanings
// for one name would silently alias distinct measurements.
func Register(name string, c Capabilities, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("substrate: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := factories[name]; ok {
		return fmt.Errorf("substrate: backend %q already registered", name)
	}
	factories[name] = f
	caps[name] = c
	return nil
}

// Canonical maps a backend name to its canonical form: the empty name
// means the default "sim" backend. Everything that keys on the backend —
// option validation, campaign content hashes, run attribution — must go
// through this, so "" and "sim" can never label the same measurement two
// different ways.
func Canonical(name string) string {
	if name == "" {
		return "sim"
	}
	return name
}

// Describe reports a registered backend's capabilities.
func Describe(name string) (Capabilities, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := caps[name]
	return c, ok
}

// Names lists the registered backends, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds the named substrate for a run, enforcing its capability
// contract against the env (a non-empty timeline needs Dynamics).
func New(name string, env Env) (Substrate, error) {
	regMu.RLock()
	f, ok := factories[name]
	c := caps[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("substrate: unknown backend %q (have %v)", name, Names())
	}
	if env.Timeline.Len() > 0 && !c.Dynamics {
		return nil, fmt.Errorf("substrate: backend %q cannot replay a dynamics timeline", name)
	}
	return f(env)
}

func mustRegister(name string, c Capabilities, f Factory) {
	if err := Register(name, c, f); err != nil {
		panic(err)
	}
}
