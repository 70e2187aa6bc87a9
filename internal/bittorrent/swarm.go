package bittorrent

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// MaxBroadcastTime is a safety valve: a broadcast that has not completed
// after this much simulated time panics instead of spinning forever.
const MaxBroadcastTime = 24 * 3600.0

// Result holds the instrumentation of one broadcast: who received how many
// fragments from whom, and when each client finished.
type Result struct {
	N int
	// Fragments[receiver][sender] is the count of fragments receiver got
	// directly from sender (the paper's v_sender → v_receiver).
	Fragments [][]int
	// CompletionTimes[i] is host i's download completion time relative to
	// the broadcast start.
	CompletionTimes []float64
	// Duration is the broadcast completion time: the maximum download
	// completion time over all clients, the paper's reference time.
	Duration float64
	// Flows is the number of simulated connection transfers, an
	// instrumentation hook for the efficiency experiments.
	Flows uint64
}

// Sent returns the number of fragments sent directly from host a to host b.
func (r *Result) Sent(a, b int) int { return r.Fragments[b][a] }

// Exchanged returns the undirected fragment count of the edge (a, b):
// a→b plus b→a, the inner sum of the paper's Eq. 1.
func (r *Result) Exchanged(a, b int) int {
	return r.Fragments[b][a] + r.Fragments[a][b]
}

// TotalFragments returns the total number of fragment receptions across
// all hosts. In a complete broadcast this is NumFragments × (N-1).
func (r *Result) TotalFragments() int {
	total := 0
	for _, row := range r.Fragments {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// peer is one BitTorrent client.
type peer struct {
	idx      int
	host     int // simnet vertex
	have     bitset.Set
	inflight bitset.Set
	haveList []int32 // pieces in acquisition order (empty for the root)
	need     []int32 // shuffled pieces still wanted; lazily compacted
	conns    []*conn

	unchoked   int // upload slots in use
	rechokes   int
	rechokeEv  *sim.Event // the choker timer, re-armed by every tick
	optimistic *conn
	rechoking  bool
	complete   bool
	doneAt     float64
}

// conn is a peer-to-peer connection. Index s ∈ {0,1} below refers to
// p[s] acting as the uploader toward p[1-s].
type conn struct {
	p          [2]*peer
	choked     [2]bool    // choked[s]: p[s] is choking p[1-s]
	interested [2]bool    // interested[s]: p[s] wants data from p[1-s]
	busy       [2]bool    // busy[s]: a batch from p[s] is in flight
	keep       [2]bool    // rechoke scratch: p[s] keeps this upload slot open
	batch      [2][]int32 // the batch in flight from p[s]; BatchFragments capacity
	sentAt     [2]float64 // start time of the active batch from p[s]
	rate       [2]rateEst // throughput p[s] receives from p[1-s]
	up         [2]upload
}

// upload is one direction of a connection as the network sees it: what it
// tells when the batch in flight from c.p[side] has arrived.
type upload struct {
	s    *swarm
	c    *conn
	side int
}

func (u *upload) Arrived() { u.s.deliver(u.c, u.side) }

// side returns the index of pr within the connection.
func (c *conn) side(pr *peer) int {
	if c.p[0] == pr {
		return 0
	}
	if c.p[1] == pr {
		return 1
	}
	panic("bittorrent: peer not on connection")
}

type swarm struct {
	eng    *sim.Engine
	net    *simnet.Network
	cfg    Config
	rng    *rand.Rand
	peers  []*peer
	avail  []int32 // availability per piece (count of peers holding it)
	frag   [][]int
	rttCap []float64 // pipelineCap per (uploader, downloader) index pair; -1 = not yet computed

	candScratch []int32 // selectPieces' candidate sample, reused per call
	// connStack holds fillSlots' idle list and rechoke's candidates. They
	// re-enter (fillSlots → unchoke → tryRequest → choke → fillSlots), so
	// each call works on the region it pushed above the current top and
	// pops it on return.
	connStack   []*conn
	rateScratch []float64 // rechoke's candidate rates, parallel to its candidates

	remaining int
	flows     uint64
	start     float64
}

// RunBroadcast performs one fully synchronized broadcast over hosts (simnet
// vertex ids) and returns the fragment-count instrumentation. The rng
// drives every protocol decision (tracker peer sets, piece order, choke
// tie-breaking); a fixed engine+network+rng triple replays identically.
func RunBroadcast(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) (*Result, error) {
	if err := cfg.validate(len(hosts)); err != nil {
		return nil, err
	}
	s := newSwarm(eng, net, hosts, cfg, rng)
	s.shuffleNeeds()
	s.wirePeers()
	s.begin()

	for s.remaining > 0 {
		if !eng.Step() {
			return nil, fmt.Errorf("bittorrent: broadcast stalled with %d incomplete peers and no pending events", s.remaining)
		}
		if eng.Now()-s.start > MaxBroadcastTime {
			return nil, fmt.Errorf("bittorrent: broadcast exceeded %g simulated seconds", float64(MaxBroadcastTime))
		}
	}
	s.finish()

	n := len(hosts)
	res := &Result{
		N:               n,
		Fragments:       s.frag,
		CompletionTimes: make([]float64, n),
		Flows:           s.flows,
	}
	for i, p := range s.peers {
		res.CompletionTimes[i] = p.doneAt - s.start
		if res.CompletionTimes[i] > res.Duration {
			res.Duration = res.CompletionTimes[i]
		}
	}
	return res, nil
}

// newSwarm allocates a broadcast's state — one slab per kind of storage,
// whatever the host count — with every non-root peer's need list in piece
// order and nobody connected. It draws nothing from rng.
func newSwarm(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) *swarm {
	n, pieces := len(hosts), cfg.NumFragments()
	s := &swarm{
		eng:         eng,
		net:         net,
		cfg:         cfg,
		rng:         rng,
		peers:       make([]*peer, n),
		avail:       make([]int32, pieces),
		frag:        make([][]int, n),
		rttCap:      make([]float64, n*n),
		candScratch: make([]int32, 0, cfg.BatchFragments*cfg.RarestSampling),
		remaining:   n - 1,
		start:       eng.Now(),
	}
	for i := range s.rttCap {
		s.rttCap[i] = -1
	}
	w := bitset.Words(pieces)
	var (
		peers = make([]peer, n)
		frag  = make([]int, n*n)
		words = make([]uint64, 2*n*w)
		lists = make([]int32, 2*(n-1)*pieces) // need and haveList of every non-root peer
	)
	for i, h := range hosts {
		s.frag[i] = frag[i*n : (i+1)*n : (i+1)*n]
		p := &peers[i]
		s.peers[i] = p
		p.idx, p.host = i, h
		p.have = bitset.Over(pieces, words[:w:w])
		p.inflight = bitset.Over(pieces, words[w:2*w:2*w])
		words = words[2*w:]
		p.rechokeEv = eng.NewTimer(func() { s.tick(p) })
		if i == cfg.Root {
			p.have.SetAll()
			p.complete = true
			for k := range s.avail {
				s.avail[k] = 1
			}
			continue
		}
		p.need = lists[:pieces:pieces]
		p.haveList = lists[pieces : pieces : 2*pieces]
		lists = lists[2*pieces:]
		for k := range p.need {
			p.need[k] = int32(k)
		}
	}
	return s
}

// shuffleNeeds randomises every downloader's request order.
func (s *swarm) shuffleNeeds() {
	for _, p := range s.peers {
		need := p.need
		s.rng.Shuffle(len(need), func(a, b int) { need[a], need[b] = need[b], need[a] })
	}
}

// begin opens the broadcast: only the root has anything to offer, every
// peer fills its upload slots, and the periodic choker ticks start,
// phase-jittered per peer.
func (s *swarm) begin() {
	root := s.peers[s.cfg.Root]
	for _, c := range root.conns {
		rs := 1 - c.side(root)
		c.interested[rs] = true
	}
	for _, p := range s.peers {
		s.fillSlots(p)
	}
	for _, p := range s.peers {
		first := s.cfg.RechokeInterval * (0.9 + 0.2*s.rng.Float64())
		s.eng.Reschedule(p.rechokeEv, first)
	}
}

// finish cancels the periodic events so the engine queue drains.
func (s *swarm) finish() {
	for _, p := range s.peers {
		s.eng.Cancel(p.rechokeEv)
	}
}

// wirePeers implements the tracker: every client learns a random peer set
// of at most MaxPeers others; connections are deduplicated. A connectivity
// repair pass guarantees every client can reach the root even under
// adversarially small MaxPeers (relevant only for stress tests; with the
// default cap of 35 the random graph is connected with overwhelming
// probability, as in practice).
//
// The edges are collected first and the connections built from them
// afterwards, so the connections, every peer's list of them and the batch
// buffers are one allocation each.
func (s *swarm) wirePeers() {
	n := len(s.peers)
	connected := bitset.New(n * n)
	want := s.cfg.MaxPeers
	if want > n-1 {
		want = n - 1
	}
	edges := make([][2]int, 0, n*want)
	degree := make([]int, n)
	connect := func(a, b int) {
		if a == b || connected.Get(a*n+b) {
			return
		}
		connected.Set(a*n + b)
		connected.Set(b*n + a)
		edges = append(edges, [2]int{a, b})
		degree[a]++
		degree[b]++
	}
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		others = others[:0]
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		s.rng.Shuffle(len(others), func(a, b int) { others[a], others[b] = others[b], others[a] })
		// The peer-set cap applies to what the tracker hands out;
		// accepted inbound connections may push a node past it, just
		// as in the real protocol.
		for _, j := range others[:want] {
			connect(i, j)
		}
	}
	// Connectivity repair (BFS from the root over connections).
	seen := make([]bool, n)
	queue := append(make([]int, 0, n), s.cfg.Root)
	seen[s.cfg.Root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for o := 0; o < n; o++ {
			if !seen[o] && connected.Get(v*n+o) {
				seen[o] = true
				queue = append(queue, o)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			connect(i, s.cfg.Root)
		}
	}

	conns := make([]conn, len(edges))
	lists := make([]*conn, 2*len(edges))
	b := s.cfg.BatchFragments
	batches := make([]int32, 2*len(edges)*b)
	for i, p := range s.peers {
		p.conns = lists[:0:degree[i]]
		lists = lists[degree[i]:]
	}
	for k, e := range edges {
		c := &conns[k]
		c.p = [2]*peer{s.peers[e[0]], s.peers[e[1]]}
		c.choked = [2]bool{true, true}
		for side := range c.up {
			c.up[side] = upload{s: s, c: c, side: side}
			c.batch[side] = batches[:0:b]
			batches = batches[b:]
			c.p[side].conns = append(c.p[side].conns, c)
		}
	}
}
