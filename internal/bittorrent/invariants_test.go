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
// mirroring RunBroadcast's setup; maxPeers 0 keeps the default peer cap.
func runSwarmWhiteBox(t *testing.T, n, pieces, maxPeers int, seed int64) *swarm {
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
	if maxPeers > 0 {
		cfg.MaxPeers = maxPeers
	}
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
	s := runSwarmWhiteBox(t, 10, 200, 0, 3)
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
	res := &Result{N: n, Pairs: s.pairs()}
	if total := res.TotalFragments(); total != (n-1)*len(s.avail) {
		t.Fatalf("fragment total %d, want %d", total, (n-1)*len(s.avail))
	}
	checkPairs(t, s, res)
}

// checkPairs holds res.Pairs to the connections of the swarm that ran it:
// strictly ascending (A, B) with A < B, each carrying fragments, at most
// one per connection, each equal to its connection's counts, and every
// unconnected pair reading zero.
func checkPairs(t *testing.T, s *swarm, res *Result) {
	t.Helper()
	n := len(s.peers)
	if len(res.Pairs) > len(s.conns) {
		t.Fatalf("%d pairs from %d connections", len(res.Pairs), len(s.conns))
	}
	for i, p := range res.Pairs {
		if p.A >= p.B || int(p.AB)+int(p.BA) <= 0 {
			t.Fatalf("pair %d = %+v: want A < B and fragments exchanged", i, p)
		}
		if i > 0 && comparePairs(res.Pairs[i-1], p) >= 0 {
			t.Fatalf("pairs %d and %d out of order: %+v, %+v", i-1, i, res.Pairs[i-1], p)
		}
	}
	connected := make(map[[2]int]bool, len(s.conns))
	for i := range s.conns {
		c := &s.conns[i]
		a, b := c.p[0].idx, c.p[1].idx
		connected[[2]int{a, b}], connected[[2]int{b, a}] = true, true
		if res.Sent(a, b) != int(c.frags[0]) || res.Sent(b, a) != int(c.frags[1]) {
			t.Fatalf("connection %d-%d delivered %v, the pairs say %d and %d", a, b, c.frags, res.Sent(a, b), res.Sent(b, a))
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if !connected[[2]int{a, b}] && (res.Sent(a, b) != 0 || res.Exchanged(a, b) != 0) {
				t.Fatalf("unconnected %d-%d reads Sent %d, Exchanged %d", a, b, res.Sent(a, b), res.Exchanged(a, b))
			}
		}
	}
}

func TestEndStateInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := runSwarmWhiteBox(t, 6, 120, 0, seed)
		for _, p := range s.peers {
			if !p.complete {
				t.Fatalf("seed %d: peer %d incomplete", seed, p.idx)
			}
			if p.inflight.Count() != 0 {
				t.Fatalf("seed %d: dangling inflight", seed)
			}
		}
		checkPairs(t, s, &Result{N: len(s.peers), Pairs: s.pairs()})
	}
	// A peer cap of 3 among 24 leaves most pairs unconnected.
	s := runSwarmWhiteBox(t, 24, 120, 3, 1)
	if 2*len(s.conns) >= 24*23/2 {
		t.Fatalf("%d connections among 24 peers with a cap of 3", len(s.conns))
	}
	checkPairs(t, s, &Result{N: len(s.peers), Pairs: s.pairs()})
}
