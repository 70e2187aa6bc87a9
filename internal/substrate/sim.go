package substrate

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bittorrent"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// mCloneSeconds totals the cost of building per-iteration replicas —
// the price the pipeline pays for bit-identical isolation.
var mCloneSeconds = telemetry.Default().Counter("repro_substrate_clone_seconds_total",
	"wall-clock seconds spent cloning engine+network replicas (incl. dynamics replay)")

func init() {
	mustRegister("sim", Capabilities{Dynamics: true}, newSim)
}

// simSubstrate measures each iteration on a private engine+network
// replica of the run's network, so every iteration starts from an idle
// network at t=0 whatever the worker count.
type simSubstrate struct {
	env Env
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

func (s *simSubstrate) Measure(_ context.Context, req Request) (*bittorrent.Result, error) {
	cloneStart := time.Now()
	replicaEng := sim.NewEngine()
	replica := s.env.Net.Clone(replicaEng)
	if s.env.Timeline.Len() > 0 {
		// Replay the timeline on this iteration's private replica:
		// earlier iterations' link state applies now, this iteration's
		// events fire mid-broadcast.
		s.env.Timeline.Apply(req.Iter, replicaEng, replica)
	}
	cloneSecs := time.Since(cloneStart).Seconds()
	s.env.Trace.Record("clone", req.Iter, cloneStart, cloneSecs)
	mCloneSeconds.Add(cloneSecs)
	return bittorrent.RunBroadcast(replicaEng, replica, req.Hosts, req.Config, req.RNG)
}

func (s *simSubstrate) Close() error { return nil }
