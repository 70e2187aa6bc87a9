package bittorrent

// End-state invariant tests: after a completed broadcast the swarm's
// internal bookkeeping must be fully consistent.

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// runSwarmWhiteBox runs a broadcast with the swarm internals visible,
// mirroring RunBroadcast's setup.
func runSwarmWhiteBox(t *testing.T, n, pieces int, seed int64) *swarm {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng)
	sw := net.AddSwitch("sw")
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = net.AddHost("h")
		net.Connect(hosts[i], sw, simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6})
	}
	cfg := DefaultConfig()
	cfg.FileBytes = pieces * cfg.FragmentSize
	s := newSwarm(eng, net, hosts, cfg, rand.New(rand.NewSource(seed)))
	s.shuffleNeeds()
	s.wirePeers()
	s.begin()
	for s.remaining > 0 {
		if !eng.Step() {
			t.Fatal("white-box broadcast stalled")
		}
	}
	s.finish()
	return s
}

func TestEndStateInvariants(t *testing.T) {
	s := runSwarmWhiteBox(t, 10, 200, 3)
	n := len(s.peers)
	// Everyone complete, nothing in flight.
	for _, p := range s.peers {
		if !p.complete || !p.have.Full() {
			t.Fatalf("peer %d incomplete at end", p.idx)
		}
		if p.inflight.Count() != 0 {
			t.Fatalf("peer %d has %d in-flight pieces at end", p.idx, p.inflight.Count())
		}
	}
	// Availability equals the peer count for every piece.
	for pc, av := range s.avail {
		if int(av) != n {
			t.Fatalf("piece %d availability %d, want %d", pc, av, n)
		}
	}
	// No active data flows remain; no connection still holds a batch.
	if s.net.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after completion", s.net.ActiveFlows())
	}
	for _, p := range s.peers {
		for _, c := range p.conns {
			for side := 0; side < 2; side++ {
				if c.busy[side] || len(c.batch[side]) != 0 {
					t.Fatal("connection still mid-transfer after completion")
				}
			}
		}
	}
	// Upload slot counters are consistent with choke flags.
	for _, p := range s.peers {
		count := 0
		for _, c := range p.conns {
			if !c.choked[c.side(p)] {
				count++
			}
		}
		if count != p.unchoked {
			t.Fatalf("peer %d unchoked counter %d, flags say %d", p.idx, p.unchoked, count)
		}
	}
	// Fragment accounting is mirrored by the receive counters.
	total := 0
	for _, row := range s.frag {
		for _, v := range row {
			total += v
		}
	}
	if total != (n-1)*len(s.avail) {
		t.Fatalf("fragment total %d, want %d", total, (n-1)*len(s.avail))
	}
}

func TestEndStateInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := runSwarmWhiteBox(t, 6, 120, seed)
		for _, p := range s.peers {
			if !p.complete {
				t.Fatalf("seed %d: peer %d incomplete", seed, p.idx)
			}
			if p.inflight.Count() != 0 {
				t.Fatalf("seed %d: dangling inflight", seed)
			}
		}
	}
}
