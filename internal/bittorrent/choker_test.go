package bittorrent

// White-box tests of the control plane: rate estimation, choke
// bookkeeping, and tit-for-tat behaviour.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestRateEstimator(t *testing.T) {
	var r rateEst
	// Feeding `rate*dt` bytes every dt converges to ~rate.
	rate := 1e6
	dt := 0.1
	now := 0.0
	for i := 0; i < 500; i++ {
		now += dt
		r.add(now, rate*dt)
	}
	if got := r.at(now); math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("estimator converged to %.0f, want ~%.0f", got, rate)
	}
	// The estimate decays once traffic stops.
	later := r.at(now + 3*rateTau)
	if later > 0.06*rate {
		t.Fatalf("estimate %.0f did not decay after 3 tau", later)
	}
	if r.at(now+100*rateTau) > 1 {
		t.Fatal("estimate should decay to ~0")
	}
}

func TestRateEstimatorOrdersFastAboveSlow(t *testing.T) {
	var fast, slow rateEst
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 0.01
		fast.add(now, 28e6*0.01) // ~28 MB/s (local link share)
		slow.add(now, 8e6*0.01)  // ~8 MB/s (WAN-capped)
	}
	if fast.at(now) <= slow.at(now) {
		t.Fatal("rate estimator cannot distinguish fast from slow connections")
	}
}

// newSwarm readies a swarm the way Broadcaster.Run does, with need lists
// in piece order, nobody connected and nothing started.
func newSwarm(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) *swarm {
	s := new(swarm)
	s.reset(eng, net, hosts, cfg, rng)
	return s
}

// buildSwarm wires a minimal swarm on a star network for white-box tests,
// without running the event loop.
func buildSwarm(t *testing.T, n, pieces int) (*swarm, *sim.Engine) {
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
	if err := cfg.validate(n); err != nil {
		t.Fatal(err)
	}
	// Root 0, need lists left in piece order.
	s := newSwarm(eng, net, hosts, cfg, rand.New(rand.NewSource(1)))
	s.wirePeers()
	return s, eng
}

func TestChokeUnchokeBookkeeping(t *testing.T) {
	s, _ := buildSwarm(t, 4, 64)
	p := s.peers[0]
	c := p.conns[0]
	ps := c.side(p)
	if !c.choked[ps] {
		t.Fatal("connections must start choked")
	}
	// Mark the remote interested so unchoke can start a request.
	c.interested[1-ps] = true
	s.unchoke(c, ps)
	if c.choked[ps] {
		t.Fatal("unchoke did not clear the flag")
	}
	if p.unchoked != 1 {
		t.Fatalf("unchoked count = %d, want 1", p.unchoked)
	}
	s.unchoke(c, ps) // idempotent
	if p.unchoked != 1 {
		t.Fatalf("double unchoke counted twice: %d", p.unchoked)
	}
	s.choke(c, ps)
	if !c.choked[ps] || p.unchoked != 0 {
		t.Fatal("choke bookkeeping wrong")
	}
	s.choke(c, ps) // idempotent
	if p.unchoked != 0 {
		t.Fatal("double choke counted twice")
	}
}

func TestFillSlotsRespectsLimit(t *testing.T) {
	s, _ := buildSwarm(t, 10, 64)
	root := s.peers[0]
	for _, c := range root.conns {
		rs := 1 - c.side(root)
		c.interested[rs] = true
	}
	s.fillSlots(root)
	if root.unchoked != s.cfg.UploadSlots {
		t.Fatalf("fillSlots opened %d slots, want %d", root.unchoked, s.cfg.UploadSlots)
	}
	// A second call must not exceed the limit.
	s.fillSlots(root)
	if root.unchoked != s.cfg.UploadSlots {
		t.Fatalf("fillSlots exceeded limit: %d", root.unchoked)
	}
}

func TestFillSlotsSkipsUninterestedAndComplete(t *testing.T) {
	s, _ := buildSwarm(t, 5, 64)
	root := s.peers[0]
	// Nobody interested: no unchokes.
	s.fillSlots(root)
	if root.unchoked != 0 {
		t.Fatalf("unchoked %d peers with no interest", root.unchoked)
	}
	// Interested but complete peers are skipped too.
	for _, c := range root.conns {
		rs := 1 - c.side(root)
		c.interested[rs] = true
		c.p[rs].complete = true
	}
	s.fillSlots(root)
	if root.unchoked != 0 {
		t.Fatalf("unchoked %d complete peers", root.unchoked)
	}
}

func TestRechokePrefersFastPeers(t *testing.T) {
	s, _ := buildSwarm(t, 8, 64)
	p := s.peers[1] // a leecher
	// p must hold pieces, otherwise interest collapses as soon as a
	// remote is unchoked and finds nothing to request.
	for pc := 0; pc < 32; pc++ {
		p.have.Set(pc)
		p.haveList = append(p.haveList, int32(pc))
		s.avail[pc]++
	}
	now := 10.0
	// Give connection rates: conns[0] slow, conns[1] fast, others zero;
	// everyone interested.
	for i, c := range p.conns {
		ps := c.side(p)
		c.interested[1-ps] = true
		switch i {
		case 0:
			c.rate[ps].add(now, 1e6)
		case 1:
			c.rate[ps].add(now, 30e6)
		case 2:
			c.rate[ps].add(now, 20e6)
		case 3:
			c.rate[ps].add(now, 10e6)
		}
	}
	s.rechoke(p, false)
	// The three regular slots must hold the three fastest; conns[0]
	// (slow) can only be the optimistic unchoke.
	for i := 1; i <= 3; i++ {
		c := p.conns[i]
		if c.choked[c.side(p)] {
			t.Fatalf("fast connection %d was not unchoked", i)
		}
	}
	if p.unchoked > s.cfg.UploadSlots {
		t.Fatalf("rechoke opened %d slots, limit %d", p.unchoked, s.cfg.UploadSlots)
	}
}

func TestRechokeSeedRanksByDelivery(t *testing.T) {
	s, _ := buildSwarm(t, 6, 64)
	seed := s.peers[0] // complete
	now := 10.0
	for i, c := range seed.conns {
		ps := c.side(seed)
		c.interested[1-ps] = true
		// rate[1-ps] = what the remote receives from the seed.
		c.rate[1-ps].add(now, float64(i+1)*1e6)
	}
	s.rechoke(seed, false)
	// The highest-delivery connections (last ones) hold the regular
	// slots.
	last := seed.conns[len(seed.conns)-1]
	if last.choked[last.side(seed)] {
		t.Fatal("seed choked its fastest downloader")
	}
}

func TestRechokeOptimisticRotation(t *testing.T) {
	s, _ := buildSwarm(t, 8, 64)
	p := s.peers[1]
	for _, c := range p.conns {
		ps := c.side(p)
		c.interested[1-ps] = true
	}
	s.rechoke(p, true)
	first := p.optimistic
	if first == nil {
		t.Fatal("no optimistic unchoke chosen")
	}
	// Rotation with rotate=true may pick another conn; over several
	// rotations at least one change must happen (7 candidates).
	changed := false
	for i := 0; i < 20 && !changed; i++ {
		s.rechoke(p, true)
		if p.optimistic != first {
			changed = true
		}
	}
	if !changed {
		t.Fatal("optimistic unchoke never rotated")
	}
}

func TestPipelineCapReflectsRTT(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	s1 := net.AddSwitch("s1")
	s2 := net.AddSwitch("s2")
	net.Connect(s1, s2, simnet.LinkSpec{Capacity: simnet.Mbps(10000), Latency: 5e-3})
	a := net.AddHost("a")
	b := net.AddHost("b")
	c := net.AddHost("c")
	net.Connect(a, s1, simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6})
	net.Connect(b, s1, simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6})
	net.Connect(c, s2, simnet.LinkSpec{Capacity: simnet.Mbps(890), Latency: 50e-6})
	cfg := DefaultConfig()
	cfg.FileBytes = 64 * cfg.FragmentSize
	s := newSwarm(eng, net, []int{a, b, c}, cfg, rand.New(rand.NewSource(1)))
	pa, pb, pc := s.peers[0], s.peers[1], s.peers[2]
	ab := &conn{p: [2]*peer{pa, pb}, pipeCap: [2]float64{-1, -1}}
	ac := &conn{p: [2]*peer{pa, pc}, pipeCap: [2]float64{-1, -1}}
	local := s.pipelineCap(ab, 0)
	wan := s.pipelineCap(ac, 0)
	if wan >= local {
		t.Fatalf("WAN cap %.0f should be far below local %.0f", wan, local)
	}
	// 80 KiB over ~10.2 ms RTT ≈ 8 MB/s.
	wantWan := float64(pipelineBytes) / (2 * (5e-3 + 2*50e-6))
	if math.Abs(wan-wantWan)/wantWan > 0.01 {
		t.Fatalf("WAN cap = %.0f, want %.0f", wan, wantWan)
	}
	// Cached per direction on first use.
	if ac.pipeCap != [2]float64{wan, -1} || s.pipelineCap(ac, 0) != wan {
		t.Fatalf("pipelineCap cache inconsistent: %v", ac.pipeCap)
	}
}

func TestSelectPiecesRarestFirst(t *testing.T) {
	s, _ := buildSwarm(t, 3, 64)
	d := s.peers[1]
	u := s.peers[0] // seed: has everything
	// Make pieces 0..15 "common" (high availability) and 48..63 rare.
	for pc := 0; pc < 16; pc++ {
		s.avail[pc] = 3
	}
	for pc := 48; pc < 64; pc++ {
		s.avail[pc] = 1
	}
	batch, useful := s.selectPieces(d, u)
	if !useful {
		t.Fatal("seed has everything; must be useful")
	}
	if len(batch) != s.cfg.BatchFragments {
		t.Fatalf("batch size %d, want %d", len(batch), s.cfg.BatchFragments)
	}
	// With sampling 3x16=48 candidates from a 64-piece need list, the
	// batch should be dominated by low-availability pieces (avail 1).
	rare := 0
	for _, pc := range batch {
		if s.avail[pc] == 1 {
			rare++
		}
	}
	if rare < len(batch)/2 {
		t.Fatalf("only %d of %d selected pieces are rare; rarest-first broken", rare, len(batch))
	}
}

func TestSelectPiecesSkipsInflightAndOwned(t *testing.T) {
	s, _ := buildSwarm(t, 3, 32)
	d := s.peers[1]
	u := s.peers[0]
	// d already has pieces 0..9 and pieces 10..19 are in flight.
	for pc := 0; pc < 10; pc++ {
		d.have.Set(pc)
	}
	for pc := 10; pc < 20; pc++ {
		d.inflight.Set(pc)
	}
	batch, useful := s.selectPieces(d, u)
	if !useful {
		t.Fatal("u still has useful pieces")
	}
	for _, pc := range batch {
		if pc < 20 {
			t.Fatalf("selected piece %d that is owned or in flight", pc)
		}
	}
}

func TestSelectPiecesExhausted(t *testing.T) {
	s, _ := buildSwarm(t, 3, 16)
	d := s.peers[1]
	u := s.peers[0]
	for pc := 0; pc < 16; pc++ {
		d.have.Set(pc)
	}
	batch, useful := s.selectPieces(d, u)
	if useful || len(batch) != 0 {
		t.Fatal("nothing needed: selection must be empty and uninteresting")
	}
	// All needed pieces in flight: not selectable but still interesting.
	d2 := s.peers[2]
	for pc := 0; pc < 16; pc++ {
		d2.inflight.Set(pc)
	}
	batch, useful = s.selectPieces(d2, u)
	if len(batch) != 0 {
		t.Fatal("in-flight pieces selected twice")
	}
	if !useful {
		t.Fatal("in-flight pieces still make the uploader interesting")
	}
}
