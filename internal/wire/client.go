package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"slices"
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

// pieceWord is the big-endian word at byte offset i of piece index's
// deterministic content, so any client can verify what it receives
// without shipping a payload around.
func pieceWord(index, i int) uint32 { return uint32(index) ^ uint32(i)*2654435761 }

// pieceData generates the content of a piece.
func pieceData(index int) []byte {
	b := make([]byte, BlockSize)
	for i := 0; i < len(b); i += 4 {
		binary.BigEndian.PutUint32(b[i:], pieceWord(index, i))
	}
	return b
}

// verifyPiece checks a received block against the deterministic content
// in place.
func verifyPiece(index int, data []byte) bool {
	if len(data) != BlockSize {
		return false
	}
	for i := 0; i < len(data); i += 4 {
		if binary.BigEndian.Uint32(data[i:]) != pieceWord(index, i) {
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

	mu        sync.Mutex // guards what follows and every peerConn's protocol state
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

	// The protocol state, guarded by client.mu.
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
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, fmt.Errorf("wire: client %d is closed", c.index)
	}
	if idx >= 0 && idx < len(c.rates) {
		pc.rate = c.rates[idx]
	}
	c.conns = append(c.conns, pc)
	go pc.writer()
	go pc.reader()
	// Announce what we have: the first message, since every other send
	// to pc waits for the lock.
	bf := make([]byte, (c.torrent.NumPieces+7)/8)
	for i, h := range c.have {
		if h {
			bf[i/8] |= 0x80 >> (uint(i) % 8)
		}
	}
	pc.send(Message{ID: MsgBitfield, Payload: bf})
	return pc, nil
}

// send queues m for the writer; the caller holds c.mu. It never blocks:
// a full queue means the writer is wedged on a dead transport, so the
// connection is killed and its reader closes it.
func (pc *peerConn) send(m Message) {
	if pc.closed {
		return
	}
	select {
	case pc.out <- m:
	default:
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

// reader applies the remote's messages, each in one hold of c.mu; a read
// error, or a message that valid rejects, closes the connection. A
// keep-alive (BEP 3) carries no ID and changes no state.
func (pc *peerConn) reader() {
	c := pc.client
	for {
		m, err := Decode(pc.conn)
		if err == nil && m.KeepAlive {
			continue
		}
		ok := err == nil && c.torrent.valid(m)
		c.mu.Lock()
		if ok {
			pc.handle(m)
		} else {
			pc.close()
		}
		c.mu.Unlock()
		if !ok {
			return
		}
	}
}

// valid checks a message against the torrent alone — piece indexes in
// range, whole-block requests, piece content — so it needs no lock.
func (t Torrent) valid(m Message) bool {
	switch m.ID {
	case MsgHave:
		return int(m.Index) < t.NumPieces
	case MsgRequest:
		return int(m.Index) < t.NumPieces && m.Begin == 0 && m.Length == BlockSize
	case MsgPiece:
		return int(m.Index) < t.NumPieces && verifyPiece(int(m.Index), m.Payload)
	}
	return true
}

// close ends the connection once; the caller holds c.mu. Its in-flight
// claims are released and the surviving connections pumped, so the
// pieces are fetched elsewhere.
func (pc *peerConn) close() {
	if pc.closed {
		return
	}
	pc.closed = true
	close(pc.out) // send checks closed under c.mu, so no send races this
	pc.conn.Close()
	pc.release()
	for _, other := range pc.client.conns {
		other.pump()
	}
}

// release drops the outstanding requests, so their pieces can be
// claimed again.
func (pc *peerConn) release() {
	for idx := range pc.outstanding {
		pc.client.inflight[idx] = false
	}
	clear(pc.outstanding)
}

// handle applies one valid message; the caller holds c.mu.
func (pc *peerConn) handle(m Message) {
	c := pc.client
	switch m.ID {
	case MsgBitfield:
		for i := 0; i < c.torrent.NumPieces && i/8 < len(m.Payload); i++ {
			if m.Payload[i/8]&(0x80>>(uint(i)%8)) != 0 && !pc.remoteHave[i] {
				pc.remoteHave[i] = true
				c.avail[i]++
			}
		}
		pc.updateInterest()
		pc.pump()
	case MsgHave:
		if !pc.remoteHave[m.Index] {
			pc.remoteHave[m.Index] = true
			c.avail[m.Index]++
		}
		pc.updateInterest()
		pc.pump()
	case MsgInterested, MsgNotInterested:
		pc.peerInterested = m.ID == MsgInterested
		c.rechoke()
	case MsgChoke:
		pc.peerChoking = true
		pc.release()
	case MsgUnchoke:
		pc.peerChoking = false
		pc.pump()
	case MsgRequest:
		if !pc.amChoking && c.have[m.Index] {
			mPiecesSent.Inc()
			pc.send(Message{ID: MsgPiece, Index: m.Index, Begin: 0, Payload: pieceData(int(m.Index))})
		}
	case MsgPiece:
		mPiecesReceived.Inc()
		delete(pc.outstanding, m.Index)
		c.inflight[m.Index] = false
		if !c.have[m.Index] {
			c.have[m.Index] = true
			c.haveCount++
			c.counts[pc.remoteIndex]++
			for _, other := range c.conns {
				other.send(Message{ID: MsgHave, Index: m.Index})
				other.updateInterest()
			}
			if c.haveCount == c.torrent.NumPieces {
				c.markComplete()
			}
		}
		pc.pump()
	case MsgCancel:
		// Single-block pieces are served immediately; nothing to cancel.
	}
}

// updateInterest recomputes and announces whether we want anything from
// the remote; the caller holds c.mu.
func (pc *peerConn) updateInterest() {
	c := pc.client
	want := false
	if c.haveCount < c.torrent.NumPieces {
		for i, rh := range pc.remoteHave {
			if rh && !c.have[i] {
				want = true
				break
			}
		}
	}
	if want == pc.amInterested {
		return
	}
	pc.amInterested = want
	id := MsgNotInterested
	if want {
		id = MsgInterested
	}
	pc.send(Message{ID: id})
}

// pump issues REQUESTs up to the pipeline depth, rarest-first; the
// caller holds c.mu.
func (pc *peerConn) pump() {
	c := pc.client
	for !pc.closed && !pc.peerChoking && len(pc.outstanding) < pipelineDepth &&
		c.haveCount < c.torrent.NumPieces {
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
			return
		}
		c.inflight[best] = true
		pc.outstanding[uint32(best)] = true
		pc.send(Message{ID: MsgRequest, Index: uint32(best), Begin: 0, Length: BlockSize})
	}
}

// rechoke grants upload slots: up to uploadSlots interested peers,
// randomly chosen (the loopback client does not need tit-for-tat — there
// is no bandwidth heterogeneity in-process; the simulator models that).
// The caller holds c.mu.
func (c *Client) rechoke() {
	var interested []*peerConn
	for _, pc := range c.conns {
		if pc.peerInterested && !pc.closed {
			interested = append(interested, pc)
		}
	}
	c.rng.Shuffle(len(interested), func(a, b int) { interested[a], interested[b] = interested[b], interested[a] })
	unchoked := interested[:min(len(interested), c.uploadSlots)]
	for _, pc := range c.conns {
		choke := !slices.Contains(unchoked, pc)
		if pc.closed || pc.amChoking == choke {
			continue
		}
		pc.amChoking = choke
		id := MsgUnchoke
		if choke {
			id = MsgChoke
		}
		pc.send(Message{ID: id})
	}
}

// Close tears down every connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, pc := range c.conns {
		pc.close()
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
			c.mu.Lock()
			c.rechoke()
			c.mu.Unlock()
		}
	}
}
