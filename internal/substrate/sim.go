package substrate

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bittorrent"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// mCloneSeconds totals the cost of giving every iteration an idle network
// at t=0 — the price the pipeline pays for bit-identical isolation.
var mCloneSeconds = telemetry.Default().Counter("repro_substrate_clone_seconds_total",
	"wall-clock seconds spent preparing engine+network replicas: take or clone one, reset it, replay the dynamics timeline")

func init() {
	mustRegister("sim", Capabilities{Dynamics: true}, newSim)
}

// simSubstrate measures each iteration on a private engine+network
// replica of the run's network, reset before the iteration so that it
// starts from an idle network at t=0 whatever ran on the replica before
// and whatever the worker count. A replica is cloned the first time a
// Measure finds none idle, so a run owns as many as it has concurrent
// Measures, and their materialised routes, event and flow pools and the
// swarm's storage (a bittorrent.Broadcaster per replica) stay warm from
// one iteration to the next: a warm Measure allocates little more than
// its Result. The routes themselves belong to the topology (simnet's
// shared route table): no replica, and no later run on the same network,
// computes one twice.
type simSubstrate struct {
	env Env

	mu   sync.Mutex
	idle []*replica // replicas no Measure is using
}

// replica is a network bound to its own engine and the Broadcaster that
// runs every broadcast on it.
type replica struct {
	net *simnet.Network
	bc  bittorrent.Broadcaster
}

func newSim(env Env) (Substrate, error) {
	// Replicating a network mid-transfer would fork live flow state into
	// every iteration; require idleness up front, once, instead of
	// failing per iteration.
	if env.Net.ActiveFlows() > 0 || env.Net.PendingFlows() > 0 {
		return nil, fmt.Errorf("substrate: sim backend needs an idle network to replicate, have %d active and %d pending flows",
			env.Net.ActiveFlows(), env.Net.PendingFlows())
	}
	return &simSubstrate{env: env}, nil
}

func (s *simSubstrate) Measure(ctx context.Context, req Request) (*bittorrent.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cloneStart := time.Now()
	r := s.take()
	defer s.put(r)
	r.net.Reset(s.env.Net)
	if s.env.Timeline.Len() > 0 {
		// Replay the timeline on this iteration's private replica:
		// earlier iterations' link state applies now, this iteration's
		// events fire mid-broadcast.
		s.env.Timeline.Apply(req.Iter, r.net.Engine(), r.net)
	}
	cloneSecs := time.Since(cloneStart).Seconds()
	s.env.Trace.Record("clone", req.Iter, cloneStart, cloneSecs)
	mCloneSeconds.Add(cloneSecs)
	return r.bc.Run(r.net.Engine(), r.net, req.Hosts, req.Config, req.RNG)
}

// take hands the caller a replica nobody else is using.
func (s *simSubstrate) take() *replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.idle); n > 0 {
		r := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return r
	}
	return &replica{net: s.env.Net.Clone(sim.NewEngine())}
}

func (s *simSubstrate) put(r *replica) {
	s.mu.Lock()
	s.idle = append(s.idle, r)
	s.mu.Unlock()
}

func (s *simSubstrate) Close() error {
	s.mu.Lock()
	s.idle = nil
	s.mu.Unlock()
	return nil
}
