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
	have     *bitset.Set
	inflight *bitset.Set
	haveList []int32 // pieces in acquisition order (empty for the root)
	need     []int32 // shuffled pieces still wanted; lazily compacted
	conns    []*conn

	unchoked   int // upload slots in use
	rechokes   int
	rechokeEv  *sim.Event
	optimistic *conn
	rechoking  bool
	complete   bool
	doneAt     float64
}

// conn is a peer-to-peer connection. Index s ∈ {0,1} below refers to
// p[s] acting as the uploader toward p[1-s].
type conn struct {
	p          [2]*peer
	choked     [2]bool // choked[s]: p[s] is choking p[1-s]
	interested [2]bool // interested[s]: p[s] wants data from p[1-s]
	flow       [2]*simnet.Flow
	batch      [2][]int32
	sentAt     [2]float64 // start time of the active batch from p[s]
	rate       [2]rateEst // throughput p[s] receives from p[1-s]
}

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
	eng         *sim.Engine
	net         *simnet.Network
	cfg         Config
	rng         *rand.Rand
	peers       []*peer
	avail       []int32 // availability per piece (count of peers holding it)
	frag        [][]int
	rttCap      map[[2]int]float64
	candScratch []int32 // selectPieces' candidate sample, reused per call
	remaining   int
	flows       uint64
	start       float64
	pieces      int
}

// RunBroadcast performs one fully synchronized broadcast over hosts (simnet
// vertex ids) and returns the fragment-count instrumentation. The rng
// drives every protocol decision (tracker peer sets, piece order, choke
// tie-breaking); a fixed engine+network+rng triple replays identically.
func RunBroadcast(eng *sim.Engine, net *simnet.Network, hosts []int, cfg Config, rng *rand.Rand) (*Result, error) {
	if err := cfg.validate(len(hosts)); err != nil {
		return nil, err
	}
	s := &swarm{
		eng:    eng,
		net:    net,
		cfg:    cfg,
		rng:    rng,
		rttCap: make(map[[2]int]float64),
		pieces: cfg.NumFragments(),
		start:  eng.Now(),
	}
	n := len(hosts)
	s.avail = make([]int32, s.pieces)
	s.frag = make([][]int, n)
	for i := range s.frag {
		s.frag[i] = make([]int, n)
	}
	s.peers = make([]*peer, n)
	for i, h := range hosts {
		p := &peer{
			idx:      i,
			host:     h,
			have:     bitset.New(s.pieces),
			inflight: bitset.New(s.pieces),
		}
		if i == cfg.Root {
			p.have.SetAll()
			p.complete = true
			for k := range s.avail {
				s.avail[k] = 1
			}
		} else {
			p.need = make([]int32, s.pieces)
			for k := range p.need {
				p.need[k] = int32(k)
			}
			rng.Shuffle(len(p.need), func(a, b int) {
				p.need[a], p.need[b] = p.need[b], p.need[a]
			})
		}
		s.peers[i] = p
	}
	s.remaining = n - 1

	s.wirePeers()

	// Initial interest: only the root has anything to offer.
	root := s.peers[cfg.Root]
	for _, c := range root.conns {
		rs := 1 - c.side(root)
		c.interested[rs] = true
	}
	for _, p := range s.peers {
		s.fillSlots(p)
	}
	// Periodic choker ticks, phase-jittered per peer.
	for _, p := range s.peers {
		p := p
		first := cfg.RechokeInterval * (0.9 + 0.2*rng.Float64())
		p.rechokeEv = eng.Schedule(first, func() { s.tick(p) })
	}

	for s.remaining > 0 {
		if !eng.Step() {
			return nil, fmt.Errorf("bittorrent: broadcast stalled with %d incomplete peers and no pending events", s.remaining)
		}
		if eng.Now()-s.start > MaxBroadcastTime {
			return nil, fmt.Errorf("bittorrent: broadcast exceeded %g simulated seconds", float64(MaxBroadcastTime))
		}
	}
	s.finish()

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

// finish cancels the periodic events so the engine queue drains.
func (s *swarm) finish() {
	for _, p := range s.peers {
		if p.rechokeEv != nil {
			s.eng.Cancel(p.rechokeEv)
			p.rechokeEv = nil
		}
	}
}

// wirePeers implements the tracker: every client learns a random peer set
// of at most MaxPeers others; connections are deduplicated. A connectivity
// repair pass guarantees every client can reach the root even under
// adversarially small MaxPeers (relevant only for stress tests; with the
// default cap of 35 the random graph is connected with overwhelming
// probability, as in practice).
func (s *swarm) wirePeers() {
	n := len(s.peers)
	connected := make([]map[int]bool, n)
	for i := range connected {
		connected[i] = make(map[int]bool)
	}
	connect := func(a, b int) {
		if a == b || connected[a][b] {
			return
		}
		connected[a][b] = true
		connected[b][a] = true
		c := &conn{p: [2]*peer{s.peers[a], s.peers[b]}, choked: [2]bool{true, true}}
		s.peers[a].conns = append(s.peers[a].conns, c)
		s.peers[b].conns = append(s.peers[b].conns, c)
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
		want := s.cfg.MaxPeers
		if want > len(others) {
			want = len(others)
		}
		// The peer-set cap applies to what the tracker hands out;
		// accepted inbound connections may push a node past it, just
		// as in the real protocol.
		for _, j := range others[:want] {
			connect(i, j)
		}
	}
	// Connectivity repair (BFS from the root over connections).
	seen := make([]bool, n)
	queue := []int{s.cfg.Root}
	seen[s.cfg.Root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range s.peers[v].conns {
			o := c.p[1-c.side(s.peers[v])].idx
			if !seen[o] {
				seen[o] = true
				queue = append(queue, o)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			connect(i, s.cfg.Root)
			seen[i] = true
		}
	}
}
