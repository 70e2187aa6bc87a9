package substrate

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bittorrent"
	"repro/internal/wire"
)

func init() {
	mustRegister("wire", Capabilities{}, newWire)
}

// wireIterationTimeout bounds one loopback broadcast. Real sockets can
// wedge in ways the simulator cannot; a wedged iteration must become a
// run failure, not a hung campaign.
const wireIterationTimeout = 120 * time.Second

// wireSubstrate measures each iteration as a real BitTorrent swarm over
// loopback TCP: one instrumented wire.Client per scenario host,
// exchanging actual 16 KiB pieces over actual connections, with each
// pair's upload rate paced to the scenario topology's bottleneck
// capacity between those hosts. Loopback TCP itself is uniformly fast,
// so without pacing every scenario would measure as one flat cluster;
// the pacing matrix is what carries the declared intra/inter-site
// bandwidth contrast into the real traffic. Being real, the
// measurements are only best-effort reproducible: protocol randomness
// is seeded per iteration, but scheduler and socket timing leak into
// the piece flow.
type wireSubstrate struct {
	env Env
	// rates[i][j] is the pacing in bytes/s for host i serving host j,
	// the single-flow bottleneck capacity of the simnet path.
	rates [][]float64
	// slots bounds concurrent swarms: each swarm holds N listeners plus
	// a full mesh of sockets, so unbounded parallel iterations would
	// exhaust ports and distort each other's timing.
	slots chan struct{}
}

func newWire(env Env) (Substrate, error) {
	n := len(env.Hosts)
	rates := make([][]float64, n)
	for i := 0; i < n; i++ {
		rates[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// A pair the topology does not connect reports an infinite
			// bottleneck; leave it unpaced — raw loopback speed — rather
			// than poisoning the sleep arithmetic.
			if c := env.Net.Path(env.Hosts[i], env.Hosts[j]).Capacity; c > 0 && !math.IsInf(c, 1) {
				rates[i][j] = c
			}
		}
	}
	width := env.Workers
	if width > 4 {
		width = 4
	}
	if width < 1 {
		width = 1
	}
	slots := make(chan struct{}, width)
	for i := 0; i < width; i++ {
		slots <- struct{}{}
	}
	return &wireSubstrate{env: env, rates: rates, slots: slots}, nil
}

func (s *wireSubstrate) Measure(ctx context.Context, req Request) (*bittorrent.Result, error) {
	select {
	case <-s.slots:
	case <-ctx.Done():
		return nil, fmt.Errorf("substrate: wire iteration %d: %w", req.Iter, ctx.Err())
	}
	defer func() { s.slots <- struct{}{} }()

	n := len(req.Hosts)
	if n != len(s.env.Hosts) {
		// Capability gating rejects dynamics timelines up front, so the
		// iteration host set always is the full run host set; anything
		// else means a plumbing bug, not a user error.
		return nil, fmt.Errorf("substrate: wire iteration %d measures %d of %d hosts", req.Iter, n, len(s.env.Hosts))
	}
	sres, err := wire.RunSwarm(ctx, wire.SwarmOptions{
		N:         n,
		NumPieces: req.Config.NumFragments(),
		Root:      req.Config.Root,
		Seed:      req.RNG.Int63(),
		Timeout:   wireIterationTimeout,
		Rates:     s.rates,
	})
	if err != nil {
		return nil, fmt.Errorf("substrate: wire iteration %d: %w", req.Iter, err)
	}
	return &bittorrent.Result{
		N:         n,
		Fragments: sres.Fragments,
		Duration:  sres.Duration.Seconds(),
	}, nil
}

func (s *wireSubstrate) Close() error { return nil }
