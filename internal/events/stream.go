package events

import (
	"errors"
	"sync"
	"time"

	"repro/internal/telemetry"
)

var (
	mEmitted = telemetry.Default().Counter(
		"repro_events_emitted_total", "Archive events emitted by the stream broker.")
	mPollErrors = telemetry.Default().Counter(
		"repro_events_poll_errors_total", "Watcher polls that failed.")
	mDropped = telemetry.Default().Counter(
		"repro_events_dropped_subscribers_total", "Subscribers disconnected for falling behind.")
	gSubscribers = telemetry.Default().Gauge(
		"repro_events_subscribers", "Live event stream subscribers.")
)

// replay is the stream's replay-ring capacity: enough to reconnect
// across any realistic SSE hiccup on a grid of thousands of cells, small
// enough to be irrelevant in memory.
const replay = 1024

// maxSubscribers caps a Stream's live subscribers. Each one holds a
// channel of replay+64 events allocated up front (about 190 KB), so the
// cap bounds what HTTP clients can make a serve process hold at ≈ 50 MB.
const maxSubscribers = 256

// ErrFull is Subscribe's answer while maxSubscribers are subscribed.
var ErrFull = errors.New("events: too many subscribers")

// Stream fans a Watcher's events out to subscribers. It assigns each
// event a monotonic ID, keeps a bounded replay ring so a reconnecting
// subscriber can resume from its last seen ID (the SSE Last-Event-ID
// contract), and runs the poll loop only while anyone is listening — an
// idle serve process costs nothing.
type Stream struct {
	watcher  *Watcher
	interval time.Duration

	mu      sync.Mutex
	nextID  int64
	ring    []Event // last replay events, oldest first
	subs    map[chan Event]struct{}
	running bool
	closed  bool
}

// NewStream wraps a Watcher. interval is the poll cadence (default 1s).
func NewStream(w *Watcher, interval time.Duration) *Stream {
	if interval <= 0 {
		interval = time.Second
	}
	return &Stream{
		watcher:  w,
		interval: interval,
		nextID:   1,
		subs:     make(map[chan Event]struct{}),
	}
}

// Subscribe registers a consumer. Events buffered with ID > lastID are
// replayed immediately (in order), then live events follow. The channel
// is closed when the subscriber falls too far behind or the stream shuts
// down — an SSE client reacts by reconnecting with its Last-Event-ID,
// which replays what the buffer still holds.
//
// The first subscriber starts the poll loop; the loop exits when the
// last unsubscribes. While maxSubscribers are subscribed, Subscribe
// returns ErrFull and no channel.
func (s *Stream) Subscribe(lastID int64) (<-chan Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.subs) >= maxSubscribers {
		return nil, ErrFull
	}
	ch := make(chan Event, replay+64)
	if s.closed {
		close(ch)
		return ch, nil
	}
	for _, e := range s.ring {
		if e.ID > lastID {
			ch <- e // capacity >= ring size: cannot block
		}
	}
	s.subs[ch] = struct{}{}
	gSubscribers.Inc()
	if !s.running {
		s.running = true
		go s.loop()
	}
	return ch, nil
}

// Unsubscribe removes a consumer registered by Subscribe. Safe to call
// after the stream already dropped the subscriber.
func (s *Stream) Unsubscribe(ch <-chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range s.subs {
		if sub == ch {
			delete(s.subs, sub)
			close(sub)
			gSubscribers.Dec()
			break
		}
	}
}

// Close shuts the stream down: the poll loop exits and every subscriber
// channel is closed.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for sub := range s.subs {
		delete(s.subs, sub)
		close(sub)
		gSubscribers.Dec()
	}
}

// loop polls the watcher while subscribers exist. Exactly one loop runs
// at a time (the running flag flips under the mutex), so the Watcher's
// single-caller contract holds.
func (s *Stream) loop() {
	for {
		evs, err := s.watcher.Poll()
		if err != nil {
			mPollErrors.Inc()
		}
		s.mu.Lock()
		for _, e := range evs {
			e.ID = s.nextID
			s.nextID++
			s.ring = append(s.ring, e)
			if len(s.ring) > replay {
				s.ring = s.ring[len(s.ring)-replay:]
			}
			mEmitted.Inc()
			for sub := range s.subs {
				select {
				case sub <- e:
				default:
					// Slow consumer: drop it rather than stall the
					// fan-out; it reconnects with Last-Event-ID.
					delete(s.subs, sub)
					close(sub)
					gSubscribers.Dec()
					mDropped.Inc()
				}
			}
		}
		idle := len(s.subs) == 0 || s.closed
		if idle {
			s.running = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		time.Sleep(s.interval)
	}
}
