package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Torrent describes the broadcast payload: NumPieces pieces of exactly
// one 16 KiB block each, so a PIECE message carries one countable
// fragment, as in the paper's instrumentation.
type Torrent struct {
	InfoHash  [20]byte
	NumPieces int
}

// pieceData generates the deterministic content of a piece, so any
// client can verify what it receives without shipping a payload around.
func pieceData(index int) []byte {
	b := make([]byte, BlockSize)
	binary.BigEndian.PutUint32(b, uint32(index))
	for i := 4; i < len(b); i += 4 {
		binary.BigEndian.PutUint32(b[i:], uint32(index)^uint32(i)*2654435761)
	}
	return b
}

// verifyPiece checks a received block against the deterministic content.
func verifyPiece(index int, data []byte) bool {
	if len(data) != BlockSize {
		return false
	}
	want := pieceData(index)
	for i := range want {
		if data[i] != want[i] {
			return false
		}
	}
	return true
}

// Client is an instrumented BitTorrent client for one torrent.
type Client struct {
	torrent Torrent
	peerID  [20]byte
	index   int // swarm-wide client index (embedded in peerID)

	mu        sync.Mutex
	have      []bool
	haveCount int
	inflight  []bool
	avail     []int // availability among connected peers
	conns     []*peerConn
	counts    map[int]int // fragments received, by remote client index
	completeC chan struct{}
	complete  bool
	closed    bool

	uploadSlots int
	rng         *rand.Rand
	// rates[j] is the upload pacing toward remote client j in bytes/s
	// (0 or out of range = unpaced). Set before wiring, read-only after.
	rates []float64
}

// handshakeTimeout bounds how long AddConn may block in the wire
// handshake, so an accepted connection whose peer never speaks cannot
// pin its goroutine forever.
const handshakeTimeout = 10 * time.Second

// NewClient builds a client; seed clients start with every piece.
func NewClient(t Torrent, index int, seed bool, rngSeed int64) *Client {
	c := &Client{
		torrent:     t,
		index:       index,
		have:        make([]bool, t.NumPieces),
		inflight:    make([]bool, t.NumPieces),
		avail:       make([]int, t.NumPieces),
		counts:      make(map[int]int),
		completeC:   make(chan struct{}),
		uploadSlots: 4,
		rng:         rand.New(rand.NewSource(rngSeed)),
	}
	copy(c.peerID[:], fmt.Sprintf("-GO0001-%012d", index))
	if seed {
		for i := range c.have {
			c.have[i] = true
		}
		c.haveCount = t.NumPieces
		c.markComplete()
	}
	return c
}

// Done returns a channel closed once the client holds every piece.
func (c *Client) Done() <-chan struct{} { return c.completeC }

// SetUploadRates installs the per-remote upload pacing (bytes/s; 0 =
// unpaced). It must be called before the client is wired to any peer:
// connections snapshot their rate at AddConn time.
func (c *Client) SetUploadRates(rates []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rates = rates
}

// Counts returns a copy of the per-peer received-fragment counters — the
// paper's instrumentation.
func (c *Client) Counts() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

func (c *Client) markComplete() {
	if !c.complete {
		c.complete = true
		close(c.completeC)
	}
}

// peerConn is one live connection.
type peerConn struct {
	client      *Client
	conn        net.Conn
	remoteIndex int

	out chan Message // writer queue
	// rate is the upload pacing toward the remote in bytes/s (0 =
	// unpaced), snapshotted from the client's rate table at AddConn.
	rate float64

	mu             sync.Mutex
	remoteHave     []bool
	amChoking      bool
	amInterested   bool
	peerChoking    bool
	peerInterested bool
	outstanding    map[uint32]bool
	closed         bool
}

const pipelineDepth = 5

// peerIndexFromID recovers the swarm index embedded by NewClient.
func peerIndexFromID(id [20]byte) (int, error) {
	var idx int
	if _, err := fmt.Sscanf(string(id[8:]), "%012d", &idx); err != nil {
		return 0, fmt.Errorf("wire: foreign peer id %q", id[:])
	}
	return idx, nil
}

// AddConn performs the handshake (initiating if dial is true) and starts
// the connection's reader and writer loops. The handshake runs under a
// deadline, so a peer that connects and then stalls costs a bounded wait,
// not a leaked goroutine; a closed client refuses new connections.
func (c *Client) AddConn(conn net.Conn, dial bool) (*peerConn, error) {
	pc, err := c.addConn(conn, dial)
	if err != nil {
		mHandshakeFailures.Inc()
	} else {
		mHandshakes.Inc()
	}
	return pc, err
}

func (c *Client) addConn(conn net.Conn, dial bool) (*peerConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		conn.Close()
		return nil, fmt.Errorf("wire: client %d is closed", c.index)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hs := Handshake{InfoHash: c.torrent.InfoHash, PeerID: c.peerID}
	var remote Handshake
	var err error
	if dial {
		if err = WriteHandshake(conn, hs); err != nil {
			return nil, err
		}
		if remote, err = ReadHandshake(conn); err != nil {
			return nil, err
		}
	} else {
		if remote, err = ReadHandshake(conn); err != nil {
			return nil, err
		}
		if err = WriteHandshake(conn, hs); err != nil {
			return nil, err
		}
	}
	if remote.InfoHash != c.torrent.InfoHash {
		conn.Close()
		return nil, fmt.Errorf("wire: info-hash mismatch")
	}
	idx, err := peerIndexFromID(remote.PeerID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	pc := &peerConn{
		client:      c,
		conn:        conn,
		remoteIndex: idx,
		out:         make(chan Message, 4096),
		remoteHave:  make([]bool, c.torrent.NumPieces),
		amChoking:   true,
		peerChoking: true,
		outstanding: make(map[uint32]bool),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("wire: client %d is closed", c.index)
	}
	if idx >= 0 && idx < len(c.rates) {
		pc.rate = c.rates[idx]
	}
	c.conns = append(c.conns, pc)
	// Announce what we have.
	bf := c.bitfieldLocked()
	c.mu.Unlock()
	go pc.writer()
	pc.send(Message{ID: MsgBitfield, Payload: bf})
	go pc.reader()
	return pc, nil
}

func (c *Client) bitfieldLocked() []byte {
	bf := make([]byte, (c.torrent.NumPieces+7)/8)
	for i, h := range c.have {
		if h {
			bf[i/8] |= 0x80 >> (uint(i) % 8)
		}
	}
	return bf
}

func (pc *peerConn) send(m Message) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return
	}
	select {
	case pc.out <- m:
	default:
		// The writer is wedged (dead transport with a full queue): kill
		// the connection; the reader loop will run teardown.
		mStalls.Inc()
		pc.conn.Close()
	}
}

func (pc *peerConn) writer() {
	for m := range pc.out {
		if pc.rate > 0 && m.ID == MsgPiece {
			// Upload pacing: serving a piece to this remote takes the
			// time the scenario's bottleneck bandwidth says it should.
			// Sleeping in the writer serializes the connection's piece
			// stream, which is exactly a bandwidth-limited link.
			time.Sleep(time.Duration(float64(len(m.Payload)) / pc.rate * float64(time.Second)))
		}
		if err := Encode(pc.conn, m); err != nil {
			pc.conn.Close()
			return
		}
	}
}

func (pc *peerConn) reader() {
	for {
		m, err := Decode(pc.conn)
		if err != nil {
			pc.teardown()
			return
		}
		pc.handle(m)
	}
}

func (pc *peerConn) teardown() {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	close(pc.out) // send() holds pc.mu, so no send can race this close
	drop := pc.outstanding
	pc.outstanding = map[uint32]bool{}
	pc.mu.Unlock()
	pc.conn.Close()
	// Release in-flight claims so other connections can fetch them.
	c := pc.client
	c.mu.Lock()
	for idx := range drop {
		c.inflight[idx] = false
	}
	others := append([]*peerConn(nil), c.conns...)
	c.mu.Unlock()
	// Wake the surviving connections: the released pieces are claimable
	// again.
	for _, other := range others {
		if other != pc {
			other.pump()
		}
	}
}

// handle dispatches one incoming message.
func (pc *peerConn) handle(m Message) {
	c := pc.client
	switch m.ID {
	case MsgBitfield:
		// Collect under pc.mu, then update availability under c.mu —
		// never nest pc.mu inside c.mu acquisition or vice versa here;
		// every other path takes c.mu before pc.mu.
		pc.mu.Lock()
		var fresh []int
		for i := 0; i < c.torrent.NumPieces && i/8 < len(m.Payload); i++ {
			if m.Payload[i/8]&(0x80>>(uint(i)%8)) != 0 && !pc.remoteHave[i] {
				pc.remoteHave[i] = true
				fresh = append(fresh, i)
			}
		}
		pc.mu.Unlock()
		if len(fresh) > 0 {
			c.mu.Lock()
			for _, i := range fresh {
				c.avail[i]++
			}
			c.mu.Unlock()
		}
		pc.updateInterest()
		pc.pump()
	case MsgHave:
		if int(m.Index) >= c.torrent.NumPieces {
			pc.teardown()
			return
		}
		pc.mu.Lock()
		fresh := !pc.remoteHave[m.Index]
		pc.remoteHave[m.Index] = true
		pc.mu.Unlock()
		if fresh {
			c.mu.Lock()
			c.avail[m.Index]++
			c.mu.Unlock()
		}
		pc.updateInterest()
		pc.pump()
	case MsgInterested:
		pc.mu.Lock()
		pc.peerInterested = true
		pc.mu.Unlock()
		c.rechoke()
	case MsgNotInterested:
		pc.mu.Lock()
		pc.peerInterested = false
		pc.mu.Unlock()
		c.rechoke()
	case MsgChoke:
		pc.mu.Lock()
		pc.peerChoking = true
		drop := pc.outstanding
		pc.outstanding = map[uint32]bool{}
		pc.mu.Unlock()
		c.mu.Lock()
		for idx := range drop {
			c.inflight[idx] = false
		}
		c.mu.Unlock()
	case MsgUnchoke:
		pc.mu.Lock()
		pc.peerChoking = false
		pc.mu.Unlock()
		pc.pump()
	case MsgRequest:
		if int(m.Index) >= c.torrent.NumPieces || m.Begin != 0 || m.Length != BlockSize {
			pc.teardown()
			return
		}
		pc.mu.Lock()
		choking := pc.amChoking
		pc.mu.Unlock()
		c.mu.Lock()
		has := c.have[m.Index]
		c.mu.Unlock()
		if !choking && has {
			mPiecesSent.Inc()
			pc.send(Message{ID: MsgPiece, Index: m.Index, Begin: 0, Payload: pieceData(int(m.Index))})
		}
	case MsgPiece:
		if int(m.Index) >= c.torrent.NumPieces || !verifyPiece(int(m.Index), m.Payload) {
			pc.teardown()
			return
		}
		mPiecesReceived.Inc()
		pc.mu.Lock()
		delete(pc.outstanding, m.Index)
		pc.mu.Unlock()
		c.mu.Lock()
		c.inflight[m.Index] = false
		fresh := !c.have[m.Index]
		if fresh {
			c.have[m.Index] = true
			c.haveCount++
			c.counts[pc.remoteIndex]++
		}
		full := c.haveCount == c.torrent.NumPieces
		var conns []*peerConn
		if fresh {
			conns = append(conns, c.conns...)
		}
		c.mu.Unlock()
		for _, other := range conns {
			other.send(Message{ID: MsgHave, Index: m.Index})
			other.updateInterest()
		}
		if full {
			c.mu.Lock()
			c.markComplete()
			c.mu.Unlock()
		}
		pc.pump()
	case MsgCancel:
		// Single-block pieces are served immediately; nothing to cancel.
	}
}

// updateInterest recomputes and announces whether we want anything from
// the remote.
func (pc *peerConn) updateInterest() {
	c := pc.client
	c.mu.Lock()
	pc.mu.Lock()
	want := false
	if c.haveCount < c.torrent.NumPieces {
		for i, rh := range pc.remoteHave {
			if rh && !c.have[i] {
				want = true
				break
			}
		}
	}
	changed := want != pc.amInterested
	pc.amInterested = want
	pc.mu.Unlock()
	c.mu.Unlock()
	if changed {
		id := MsgNotInterested
		if want {
			id = MsgInterested
		}
		pc.send(Message{ID: id})
	}
}

// pump issues REQUESTs up to the pipeline depth, rarest-first.
func (pc *peerConn) pump() {
	c := pc.client
	for {
		c.mu.Lock()
		pc.mu.Lock()
		if pc.closed || pc.peerChoking || len(pc.outstanding) >= pipelineDepth ||
			c.haveCount == c.torrent.NumPieces {
			pc.mu.Unlock()
			c.mu.Unlock()
			return
		}
		best := -1
		bestAvail := 1 << 30
		for i := range c.have {
			if c.have[i] || c.inflight[i] || !pc.remoteHave[i] {
				continue
			}
			if c.avail[i] < bestAvail {
				best, bestAvail = i, c.avail[i]
			}
		}
		if best < 0 {
			pc.mu.Unlock()
			c.mu.Unlock()
			return
		}
		c.inflight[best] = true
		pc.outstanding[uint32(best)] = true
		pc.mu.Unlock()
		c.mu.Unlock()
		pc.send(Message{ID: MsgRequest, Index: uint32(best), Begin: 0, Length: BlockSize})
	}
}

// rechoke grants upload slots: up to uploadSlots interested peers,
// randomly chosen (the loopback client does not need tit-for-tat — there
// is no bandwidth heterogeneity in-process; the simulator models that).
func (c *Client) rechoke() {
	c.mu.Lock()
	conns := append([]*peerConn(nil), c.conns...)
	slots := c.uploadSlots
	rng := c.rng
	var interested []*peerConn
	for _, pc := range conns {
		pc.mu.Lock()
		if pc.peerInterested && !pc.closed {
			interested = append(interested, pc)
		}
		pc.mu.Unlock()
	}
	rng.Shuffle(len(interested), func(a, b int) { interested[a], interested[b] = interested[b], interested[a] })
	keep := map[*peerConn]bool{}
	for i := 0; i < len(interested) && i < slots; i++ {
		keep[interested[i]] = true
	}
	c.mu.Unlock()

	for _, pc := range conns {
		pc.mu.Lock()
		closed := pc.closed
		was := pc.amChoking
		want := !keep[pc]
		pc.amChoking = want
		pc.mu.Unlock()
		if closed || was == want {
			continue
		}
		if want {
			pc.send(Message{ID: MsgChoke})
		} else {
			pc.send(Message{ID: MsgUnchoke})
		}
	}
}

// Close tears down every connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := append([]*peerConn(nil), c.conns...)
	c.mu.Unlock()
	for _, pc := range conns {
		pc.teardown()
	}
}

// chokerLoop periodically re-evaluates upload slots until stop closes.
func (c *Client) chokerLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.rechoke()
		}
	}
}
