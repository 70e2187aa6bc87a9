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
// So a wire run is reproducible in distribution, not byte for byte: the
// campaign layer keys it by backend and reuses its archive on resume
// instead of recomputing it, and the bit-identity contract across
// worker counts is the sim substrate's alone.
//
// The two are a fixed table, and Check is the one place that decides
// whether a backend exists and can run what is asked of it;
// core.Options.Backend selects one, and the campaign layer sweeps the
// choice as a content-hashed axis.
package substrate

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/bittorrent"
	"repro/internal/dynamics"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

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
	// Seed is the run seed (Options.Seed). No substrate reads it: each
	// Request carries its iteration's RNG stream.
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

// backend is one built-in substrate: whether it can replay a dynamics
// timeline, and how to build it for a run.
type backend struct {
	dynamics bool
	build    func(Env) (Substrate, error)
}

// backends holds every substrate the binary measures with. A name enters
// campaign cache keys, so it keeps its meaning once given.
var backends = map[string]backend{
	"sim":  {dynamics: true, build: newSim},
	"wire": {build: newWire},
}

// Check resolves the backend a run names to its canonical name ("" means
// "sim"), failing on a name no backend has and, when dynamics is set, on
// a backend that cannot replay a dynamics timeline. Everything that keys
// on the backend (option validation, campaign content hashes, run
// attribution) goes through it, so "" and "sim" never label one
// measurement two ways.
func Check(name string, dynamics bool) (string, error) {
	if name == "" {
		name = "sim"
	}
	b, ok := backends[name]
	switch {
	case !ok:
		return name, fmt.Errorf("substrate: unknown backend %q (have %v)", name, Names())
	case dynamics && !b.dynamics:
		return name, fmt.Errorf("substrate: backend %q cannot replay a Dynamics timeline", name)
	}
	return name, nil
}

// Names lists the backends, sorted.
func Names() []string {
	return slices.Sorted(maps.Keys(backends))
}

// New builds the named substrate for a run, checking it against the env
// (a non-empty timeline needs a backend that replays dynamics).
func New(name string, env Env) (Substrate, error) {
	name, err := Check(name, env.Timeline.Len() > 0)
	if err != nil {
		return nil, err
	}
	return backends[name].build(env)
}
