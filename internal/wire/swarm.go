package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// SwarmResult is the instrumentation of one real-socket broadcast.
type SwarmResult struct {
	N int
	// Fragments[receiver][sender] counts 16 KiB fragments, the counts
	// bittorrent.PairsOf turns into a broadcast Result's pairs.
	Fragments [][]int
	// Duration is the wall-clock time until every client completed.
	Duration time.Duration
}

// TotalFragments sums all receptions; a complete broadcast yields
// NumPieces x (N-1).
func (r *SwarmResult) TotalFragments() int {
	total := 0
	for _, row := range r.Fragments {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// SwarmOptions configures one real-socket broadcast.
type SwarmOptions struct {
	// N is the number of clients; client Root seeds.
	N int
	// NumPieces is the payload size in 16 KiB pieces.
	NumPieces int
	// Root is the seeding client's index (the broadcast root).
	Root int
	// Seed drives all protocol randomness (peer-id salting, rechoke
	// shuffles) for best-effort reproducibility.
	Seed int64
	// Timeout, when positive, bounds the broadcast in addition to ctx.
	Timeout time.Duration
	// Rates, when non-nil, is the N x N upload pacing matrix:
	// Rates[i][j] is the rate in bytes/s at which client i serves piece
	// payloads to client j (0 = unpaced). Deriving it from a scenario
	// topology's bottleneck capacities is what lets a loopback swarm —
	// where TCP itself is uniformly fast — reproduce the scenario's
	// bandwidth contrast in real traffic.
	Rates [][]float64
}

// RunSwarm runs a synchronized broadcast of NumPieces 16 KiB fragments
// among N clients over real TCP connections on 127.0.0.1 and returns
// when every client holds the full payload. Cancellation is prompt and
// clean: when ctx expires (or Timeout elapses) the swarm's listeners,
// clients and in-flight handshakes are all torn down before the call
// returns, so a stalled peer costs an error, not leaked goroutines.
func RunSwarm(ctx context.Context, opt SwarmOptions) (res *SwarmResult, err error) {
	mSwarms.Inc()
	defer func() {
		if err != nil {
			mSwarmFailures.Inc()
		} else {
			mSwarmSeconds.Observe(res.Duration.Seconds())
		}
	}()
	n := opt.N
	if n < 2 {
		return nil, fmt.Errorf("wire: need at least 2 clients, have %d", n)
	}
	if opt.NumPieces < 1 {
		return nil, fmt.Errorf("wire: need at least 1 piece")
	}
	if opt.Root < 0 || opt.Root >= n {
		return nil, fmt.Errorf("wire: root %d out of range for %d clients", opt.Root, n)
	}
	if opt.Rates != nil && len(opt.Rates) != n {
		return nil, fmt.Errorf("wire: rate matrix has %d rows for %d clients", len(opt.Rates), n)
	}
	// The swarm's context also ends when RunSwarm returns, so the
	// AfterFuncs below always run.
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var torrent Torrent
	torrent.NumPieces = opt.NumPieces
	copy(torrent.InfoHash[:], fmt.Sprintf("repro-broadcast-%04d", opt.NumPieces%10000))

	clients := make([]*Client, n)
	listeners := make([]net.Listener, n)
	shutdown := func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}
	var once sync.Once
	doShutdown := func() { once.Do(shutdown) }
	defer doShutdown()

	for i := 0; i < n; i++ {
		clients[i] = NewClient(torrent, i, i == opt.Root, opt.Seed+int64(i)*7919)
		if opt.Rates != nil {
			clients[i].SetUploadRates(opt.Rates[i])
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("wire: listen: %w", err)
		}
		listeners[i] = l
	}

	// Watchdog: a dead ctx tears the whole swarm down, which unwinds
	// every blocked accept, handshake and completion wait below.
	context.AfterFunc(ctx, doShutdown)

	// Accept loops.
	for i := 0; i < n; i++ {
		i := i
		go func() {
			for {
				conn, err := listeners[i].Accept()
				if err != nil {
					return
				}
				go func() {
					// A handshake still running when the swarm ends
					// is cut short; after it, the client owns conn.
					defer context.AfterFunc(ctx, func() { conn.Close() })()
					if _, err := clients[i].AddConn(conn, false); err != nil {
						conn.Close()
					}
				}()
			}
		}()
	}

	// ctxErr prefers reporting the cancellation over the I/O error it
	// provoked (shutdown closes sockets, so dials and handshakes fail
	// with unhelpful "use of closed connection" errors).
	ctxErr := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("wire: swarm canceled: %w", cerr)
		}
		return err
	}

	// Full-mesh wiring: client i dials every j < i (the swarm sizes the
	// paper uses are below the 35-peer cap, where the mesh is complete).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			conn, err := net.Dial("tcp", listeners[j].Addr().String())
			if err != nil {
				return nil, ctxErr(fmt.Errorf("wire: dial: %w", err))
			}
			if _, err := clients[i].AddConn(conn, true); err != nil {
				return nil, ctxErr(fmt.Errorf("wire: handshake: %w", err))
			}
		}
	}

	// Start chokers.
	stop := make(chan struct{})
	defer close(stop)
	for _, c := range clients {
		go c.chokerLoop(stop)
	}
	// Kick the first slot decisions without waiting for the ticker.
	for _, c := range clients {
		c.mu.Lock()
		c.rechoke()
		c.mu.Unlock()
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		if i == opt.Root {
			continue
		}
		select {
		case <-clients[i].Done():
		case <-ctx.Done():
			return nil, fmt.Errorf("wire: client %d incomplete: %w", i, ctx.Err())
		}
	}
	res = &SwarmResult{N: n, Duration: time.Since(start)}
	res.Fragments = make([][]int, n)
	for i := 0; i < n; i++ {
		res.Fragments[i] = make([]int, n)
		for from, count := range clients[i].Counts() {
			if from >= 0 && from < n {
				res.Fragments[i][from] = count
			}
		}
	}
	return res, nil
}

// RunLoopbackSwarm runs a full-mesh broadcast of numPieces 16 KiB
// fragments among n clients over loopback TCP: client 0 seeds, and the
// call returns once every client holds the full payload or ctx/timeout
// expires.
func RunLoopbackSwarm(ctx context.Context, n, numPieces int, seed int64, timeout time.Duration) (*SwarmResult, error) {
	return RunSwarm(ctx, SwarmOptions{N: n, NumPieces: numPieces, Seed: seed, Timeout: timeout})
}
