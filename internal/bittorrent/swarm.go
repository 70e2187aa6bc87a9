package bittorrent

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

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
	// Pairs holds the fragment counts of every pair of hosts that
	// exchanged any, sorted by (A, B). A fragment crosses only a tracker
	// connection, so there are at most as many pairs as connections.
	Pairs []Pair
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

// Pair is the fragment count of one pair of hosts A < B: AB fragments went
// directly from A to B (the paper's v_A → v_B), BA from B to A.
type Pair struct {
	A, B   int32
	AB, BA int32
}

// comparePairs orders Pairs by (A, B).
func comparePairs(x, y Pair) int {
	return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
}

// pair returns the Pair of hosts a < b, or the zero Pair if they exchanged
// nothing.
func (r *Result) pair(a, b int) Pair {
	if i, ok := slices.BinarySearchFunc(r.Pairs, Pair{A: int32(a), B: int32(b)}, comparePairs); ok {
		return r.Pairs[i]
	}
	return Pair{}
}

// Sent returns the number of fragments sent directly from host a to host b.
func (r *Result) Sent(a, b int) int {
	if a < b {
		return int(r.pair(a, b).AB)
	}
	return int(r.pair(b, a).BA)
}

// Exchanged returns the undirected fragment count of the edge (a, b):
// a→b plus b→a, the inner sum of the paper's Eq. 1.
func (r *Result) Exchanged(a, b int) int { return r.Sent(a, b) + r.Sent(b, a) }

// TotalFragments returns the total number of fragment receptions across
// all hosts. In a complete broadcast this is NumFragments × (N-1).
func (r *Result) TotalFragments() int {
	total := 0
	for _, p := range r.Pairs {
		total += int(p.AB) + int(p.BA)
	}
	return total
}

// PairsOf returns the Pairs of a dense count matrix, frag[receiver][sender],
// for a substrate that counts per pair of hosts rather than per connection.
func PairsOf(frag [][]int) []Pair {
	var pairs []Pair
	for a := range frag {
		for b := a + 1; b < len(frag); b++ {
			if ab, ba := frag[b][a], frag[a][b]; ab+ba > 0 {
				pairs = append(pairs, Pair{A: int32(a), B: int32(b), AB: int32(ab), BA: int32(ba)})
			}
		}
	}
	return pairs
}

// peer is one BitTorrent client.
type peer struct {
	s        *swarm
	idx      int
	host     int // simnet vertex
	have     bitset.Set
	inflight bitset.Set
	haveList []int32 // the first pieces acquired, in order, up to keep (see reset)
	need     []int32 // shuffled pieces still wanted; lazily compacted
	conns    []*conn

	unchoked   int // upload slots in use
	rechokes   int
	rechokeEv  *sim.Event // the choker timer, firing p itself; re-armed by every tick
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
	batch      [2][]int32 // the batch in flight from p[s], from swarm.batchFree; nil while idle
	sentAt     [2]float64 // start time of the active batch from p[s]
	rate       [2]rateEst // throughput p[s] receives from p[1-s]
	up         [2]upload
	frags      [2]int32   // frags[s]: fragments p[s] delivered to p[1-s]
	pipeCap    [2]float64 // pipeCap[s]: pipelineCap with p[s] uploading; -1 until first used
}

// upload is one direction of a connection as the network sees it: what it
// tells when the batch in flight from c.p[side] has arrived.
type upload struct {
	s    *swarm
	c    *conn
	side int
}

func (u *upload) Fire() { u.s.deliver(u.c, u.side) }

// Fire is the peer's choker tick.
func (p *peer) Fire() { p.s.tick(p) }

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
	eng   *sim.Engine
	net   *simnet.Network
	cfg   Config
	rng   *rand.Rand
	peers []*peer
	avail []int32 // availability per piece (count of peers holding it)

	batchLen    int     // fragments a request batch may carry: BatchFragments, at most the payload
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

	// Every slice above, and the slabs below that peers and connections
	// are carved from, is kept from one run to the next (see Broadcaster):
	// each run re-slices and clears what it uses, and reallocates only what
	// holds too little. The connection slabs are sized for the most
	// connections wirePeers can make, so a draw with more edges than the
	// last one does not regrow them.
	peerSlab  []peer // its rechoke timers belong to eng
	words     []uint64
	lists     []int32
	conns     []conn // the connections this run wired
	connLists []*conn
	batchFree [][]int32 // request buffers no upload has in flight (takeBatch)
	// wirePeers' scratch.
	connected []uint64
	edges     [][2]int
	degree    []int
	others    []int
	seen      []bool
	queue     []int
}

// Broadcaster runs broadcasts one after another on storage it keeps: the
// swarm's slabs, connections, scratch and rechoke timers. A Result never
// shares any of it. The zero value is ready to use; a Broadcaster is not
// safe for concurrent use.
type Broadcaster struct {
	s *swarm // nil before the first run and after a failed one
}

// RunBroadcast is Run on a new Broadcaster, for a caller with a single
// broadcast to run.
func RunBroadcast(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) (*Result, error) {
	return new(Broadcaster).Run(eng, net, hosts, cfg, rng)
}

// Run performs one fully synchronized broadcast over hosts (simnet vertex
// ids) and returns the fragment-count instrumentation. The rng drives
// every protocol decision (tracker peer sets, piece order, choke
// tie-breaking); a fixed engine+network+rng triple replays identically,
// whatever the Broadcaster ran before.
//
// A successful run leaves nothing in flight — a peer completes only when
// its last batch has landed — so the next run may reuse every connection.
// A failed run drops the storage instead: its uploads may still be in
// flight on net, and they point into it.
func (b *Broadcaster) Run(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) (*Result, error) {
	if err := cfg.Validate(len(hosts)); err != nil {
		return nil, err
	}
	s := b.s
	b.s = nil
	if s == nil {
		s = new(swarm)
	}
	s.reset(eng, net, hosts, cfg, rng)
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
	b.s = s

	n := len(hosts)
	res := &Result{
		N:               n,
		Pairs:           s.pairs(),
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

// reuse returns buf re-sliced to n elements, or a new slice if it holds
// fewer. The elements keep whatever the last run left in them.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pairs returns the counts of the connections that carried fragments,
// sorted by (A, B): a pair of peers shares at most one connection.
func (s *swarm) pairs() []Pair {
	n := 0
	for i := range s.conns {
		if s.conns[i].frags != [2]int32{} {
			n++
		}
	}
	pairs := make([]Pair, 0, n)
	for i := range s.conns {
		c := &s.conns[i]
		if c.frags == [2]int32{} {
			continue
		}
		a, b, ab, ba := c.p[0].idx, c.p[1].idx, c.frags[0], c.frags[1]
		if a > b {
			a, b, ab, ba = b, a, ba, ab
		}
		pairs = append(pairs, Pair{A: int32(a), B: int32(b), AB: ab, BA: ba})
	}
	slices.SortFunc(pairs, comparePairs)
	return pairs
}

// reset readies s for a broadcast over hosts, with every non-root peer's
// need list in piece order and nobody connected. It draws nothing from rng.
func (s *swarm) reset(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) {
	n, pieces := len(hosts), cfg.NumFragments()
	if eng != s.eng {
		s.peerSlab = nil // the timers must come from eng
	}
	// No batch or candidate sample outgrows the payload, so the clamp
	// picks the pieces BatchFragments would.
	if b := min(cfg.BatchFragments, pieces); b != s.batchLen {
		s.batchLen, s.batchFree = b, nil
	}
	s.eng, s.net, s.cfg, s.rng = eng, net, cfg, rng
	s.remaining, s.flows, s.start = n-1, 0, eng.Now()
	s.peers = reuse(s.peers, n)
	s.avail = reuse(s.avail, pieces) // all ones once the root is set up below
	s.candScratch = reuse(s.candScratch, s.batchLen*rarestSampling)[:0]
	w := bitset.Words(pieces)
	s.peerSlab = reuse(s.peerSlab, n)
	s.words = reuse(s.words, 2*n*w)
	clear(s.words)
	// selectPieces reads a haveList only up to 4 samples long, so it keeps
	// one piece more: a full list turns the fast path off as a longer would.
	keep := min(pieces, 4*s.batchLen*rarestSampling+1)
	s.lists = reuse(s.lists, (n-1)*(pieces+keep)) // need and haveList of every non-root peer
	words, lists := s.words, s.lists
	for i, h := range hosts {
		p := &s.peerSlab[i]
		s.peers[i] = p
		*p = peer{s: s, idx: i, host: h, rechokeEv: p.rechokeEv}
		p.have = bitset.Over(pieces, words[:w:w])
		p.inflight = bitset.Over(pieces, words[w:2*w:2*w])
		words = words[2*w:]
		if p.rechokeEv == nil {
			p.rechokeEv = eng.NewTimer(p)
		}
		if i == cfg.Root {
			p.have.SetAll()
			p.complete = true
			for k := range s.avail {
				s.avail[k] = 1
			}
			continue
		}
		p.need = lists[:pieces:pieces]
		p.haveList = lists[pieces : pieces : pieces+keep]
		lists = lists[pieces+keep:]
		for k := range p.need {
			p.need[k] = int32(k)
		}
	}
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
		first := rechokeInterval * (0.9 + float64(0.2*s.rng.Float64()))
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
// afterwards, so the connections and every peer's list of them are one
// slab each.
func (s *swarm) wirePeers() {
	n := len(s.peers)
	s.connected = reuse(s.connected, bitset.Words(n*n))
	clear(s.connected)
	connected := bitset.Over(n*n, s.connected)
	want := s.cfg.MaxPeers
	if want > n-1 {
		want = n - 1
	}
	// Every peer connects to want others, and the repair below adds at
	// most one connection per peer.
	maxEdges := n*want + n
	s.edges = reuse(s.edges, maxEdges)
	edges := s.edges[:0]
	s.degree = reuse(s.degree, n)
	degree := s.degree
	clear(degree)
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
	s.others = reuse(s.others, n-1)
	others := s.others
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
	s.seen = reuse(s.seen, n)
	seen := s.seen
	clear(seen)
	s.queue = reuse(s.queue, n) // every peer enters the queue at most once
	queue := append(s.queue[:0], s.cfg.Root)
	seen[s.cfg.Root] = true
	for k := 0; k < len(queue); k++ {
		v := queue[k]
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

	s.conns = reuse(s.conns, maxEdges)[:len(edges)]
	s.connLists = reuse(s.connLists, 2*maxEdges)
	lists := s.connLists
	for i, p := range s.peers {
		p.conns = lists[:0:degree[i]]
		lists = lists[degree[i]:]
	}
	for k, e := range edges {
		c := &s.conns[k]
		*c = conn{p: [2]*peer{s.peers[e[0]], s.peers[e[1]]}, choked: [2]bool{true, true}, pipeCap: [2]float64{-1, -1}}
		for side := range c.up {
			c.up[side] = upload{s: s, c: c, side: side}
			c.p[side].conns = append(c.p[side].conns, c)
		}
	}
}
