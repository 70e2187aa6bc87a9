package wire

// A minimal HTTP tracker, completing the deployment path: real swarms
// bootstrap through an announce endpoint that hands each client a random
// peer subset capped at 35 — the cap the paper identifies as a source of
// incomplete per-run edge coverage (§II-C).

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
)

// TrackerMaxPeers is the mainline announce-response cap.
const TrackerMaxPeers = 35

// TrackerPeer is one entry of an announce response.
type TrackerPeer struct {
	PeerID string `json:"peer_id"`
	Addr   string `json:"addr"`
}

// announceResponse is the tracker's JSON reply (a simplification of the
// bencoded original; the peer-set semantics are what matters here). As in
// BEP 3, a rejected announce is still HTTP 200: the reply carries
// "failure reason" and nothing else.
type announceResponse struct {
	Failure  string        `json:"failure reason,omitempty"`
	Interval int           `json:"interval,omitempty"`
	Peers    []TrackerPeer `json:"peers,omitempty"`
}

// announceMaxBody bounds the reply a client reads: 35 peers are a few
// kilobytes, so 1 MiB is only ever reached by a misbehaving tracker.
const announceMaxBody = 1 << 20

// Tracker is an in-process HTTP tracker for one or more torrents.
type Tracker struct {
	mu     sync.Mutex
	swarms map[string]map[string]string // infohash -> peerID -> addr
	rng    *rand.Rand
	srv    *http.Server
	ln     net.Listener
}

// NewTracker starts a tracker listening on 127.0.0.1:0; Close shuts it
// down.
func NewTracker(seed int64) (*Tracker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		swarms: make(map[string]map[string]string),
		rng:    rand.New(rand.NewSource(seed)),
		ln:     ln,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/announce", t.handleAnnounce)
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln)
	return t, nil
}

// URL returns the announce URL.
func (t *Tracker) URL() string {
	return fmt.Sprintf("http://%s/announce", t.ln.Addr())
}

// Close stops the tracker.
func (t *Tracker) Close() error { return t.srv.Close() }

// handleAnnounce registers the caller and returns a random peer subset.
func (t *Tracker) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	infoHash := q.Get("info_hash")
	peerID := q.Get("peer_id")
	port := q.Get("port")
	if infoHash == "" || peerID == "" || port == "" {
		writeAnnounce(w, announceResponse{Failure: "missing info_hash, peer_id or port"})
		return
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = "127.0.0.1"
	}
	addr := net.JoinHostPort(host, port)

	t.mu.Lock()
	swarm, ok := t.swarms[infoHash]
	if !ok {
		swarm = make(map[string]string)
		t.swarms[infoHash] = swarm
	}
	if q.Get("event") == "stopped" {
		delete(swarm, peerID)
	} else {
		swarm[peerID] = addr
	}
	// Collect the other peers and sample up to the cap.
	var peers []TrackerPeer
	for id, a := range swarm {
		if id != peerID {
			peers = append(peers, TrackerPeer{PeerID: id, Addr: a})
		}
	}
	t.rng.Shuffle(len(peers), func(a, b int) { peers[a], peers[b] = peers[b], peers[a] })
	if len(peers) > TrackerMaxPeers {
		peers = peers[:TrackerMaxPeers]
	}
	t.mu.Unlock()

	// Deterministic order within the sample for easier testing.
	for i := 1; i < len(peers); i++ {
		for j := i; j > 0 && peers[j-1].PeerID > peers[j].PeerID; j-- {
			peers[j-1], peers[j] = peers[j], peers[j-1]
		}
	}
	writeAnnounce(w, announceResponse{Interval: 30, Peers: peers})
}

// writeAnnounce sends the one reply encoding, success or failure.
func writeAnnounce(w http.ResponseWriter, ar announceResponse) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ar)
}

// Announce registers a client with the tracker and returns the peer set
// it was handed. A failure reason from the tracker surfaces as an error
// carrying the reason.
func Announce(trackerURL string, t Torrent, peerID [20]byte, port int, event string) ([]TrackerPeer, error) {
	peers, err := announce(trackerURL, t, peerID, port, event)
	if err != nil {
		mAnnounceFailures.Inc()
	} else {
		mAnnounces.Inc()
	}
	return peers, err
}

func announce(trackerURL string, t Torrent, peerID [20]byte, port int, event string) ([]TrackerPeer, error) {
	u, err := url.Parse(trackerURL)
	if err != nil {
		return nil, fmt.Errorf("wire: bad tracker url: %w", err)
	}
	q := u.Query()
	q.Set("info_hash", fmt.Sprintf("%x", t.InfoHash[:]))
	q.Set("peer_id", string(peerID[:]))
	q.Set("port", fmt.Sprint(port))
	if event != "" {
		q.Set("event", event)
	}
	u.RawQuery = q.Encode()
	resp, err := http.Get(u.String())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("wire: tracker returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, announceMaxBody))
	if err != nil {
		return nil, fmt.Errorf("wire: tracker response: %w", err)
	}
	var ar announceResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return nil, fmt.Errorf("wire: tracker response: %w", err)
	}
	if ar.Failure != "" {
		return nil, fmt.Errorf("wire: tracker failure: %s", ar.Failure)
	}
	return ar.Peers, nil
}
