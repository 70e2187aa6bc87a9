package events

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/fleet"
	"repro/internal/persist"
)

func key(i int) string { return fmt.Sprintf("%064x", i+1) }

func openStore(t *testing.T, dir string) *archive.Store {
	t.Helper()
	st, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// subscribe is Subscribe on a stream below its cap.
func subscribe(t *testing.T, s *Stream, lastID int64) <-chan Event {
	t.Helper()
	ch, err := s.Subscribe(lastID)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func appendLog(t *testing.T, dir string, line string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "manifest.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// A watcher attaching to an archive with history replays it on the
// first poll, then reports only increments — including a torn line
// completed between polls — plus lease and finalize transitions.
func TestWatcherLifecycle(t *testing.T) {
	dir := t.TempDir()
	k1, k2, k3 := key(1), key(2), key(3)
	appendLog(t, dir, fmt.Sprintf(`{"index":0,"key":"%s","status":"done","owner":"w1","cache":"miss","q":0.5}`+"\n", k1))
	if err := fleet.AppendIndex(filepath.Join(dir, "runs", "index.json"),
		fleet.IndexEntry{Key: k1, Run: 0, Owner: "w1", Cache: "miss"}); err != nil {
		t.Fatal(err)
	}

	w := NewWatcher(openStore(t, dir))
	evs, err := w.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != KindCellFinished || evs[1].Kind != KindRunExecuted {
		t.Fatalf("first poll should replay history: %+v", evs)
	}
	if evs[0].Owner != "w1" || evs[0].Cache != "miss" || evs[0].Q != 0.5 {
		t.Fatalf("cell event lost attribution: %+v", evs[0])
	}

	// Idle archive: no events.
	if evs, err = w.Poll(); err != nil || len(evs) != 0 {
		t.Fatalf("idle poll emitted: %+v err=%v", evs, err)
	}

	// A torn append emits nothing; completing it emits exactly once.
	appendLog(t, dir, fmt.Sprintf(`{"index":1,"key":"%s"`, k2))
	if evs, err = w.Poll(); err != nil || len(evs) != 0 {
		t.Fatalf("torn line emitted: %+v err=%v", evs, err)
	}
	appendLog(t, dir, `,"status":"failed","error":"boom"}`+"\n")
	evs, err = w.Poll()
	if err != nil || len(evs) != 1 || evs[0].Kind != KindCellFailed || evs[0].Error != "boom" {
		t.Fatalf("completed torn line: %+v err=%v", evs, err)
	}

	// Lease appears -> claimed; epoch bump -> reclaimed; removal -> nothing.
	leaseDir := filepath.Join(dir, "leases")
	if err := os.MkdirAll(leaseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	leasePath := filepath.Join(leaseDir, k3+".json")
	writeLease := func(owner string, epoch int) {
		data := fmt.Sprintf(`{"key":"%s","owner":"%s","epoch":%d,"acquired_unix":1,"heartbeat_unix":1,"ttl_seconds":60}`, k3, owner, epoch)
		if err := os.WriteFile(leasePath, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeLease("w1", 1)
	evs, err = w.Poll()
	if err != nil || len(evs) != 1 || evs[0].Kind != KindLeaseClaimed || evs[0].Owner != "w1" {
		t.Fatalf("lease claim: %+v err=%v", evs, err)
	}
	writeLease("w2", 2)
	evs, err = w.Poll()
	if err != nil || len(evs) != 1 || evs[0].Kind != KindLeaseReclaimed || evs[0].Owner != "w2" || evs[0].Epoch != 2 {
		t.Fatalf("lease reclaim: %+v err=%v", evs, err)
	}
	if err := os.Remove(leasePath); err != nil {
		t.Fatal(err)
	}
	if evs, err = w.Poll(); err != nil || len(evs) != 0 {
		t.Fatalf("lease release emitted: %+v err=%v", evs, err)
	}

	// Finalize fires exactly once.
	if err := os.WriteFile(filepath.Join(dir, "campaign.csv"), []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err = w.Poll()
	if err != nil || len(evs) != 1 || evs[0].Kind != KindFinalized {
		t.Fatalf("finalize: %+v err=%v", evs, err)
	}
	if evs, err = w.Poll(); err != nil || len(evs) != 0 {
		t.Fatalf("finalize re-fired: %+v err=%v", evs, err)
	}
}

// The stream assigns monotonic IDs, replays across reconnects from
// Last-Event-ID, and delivers live appends — under -race with the
// writer appending concurrently.
func TestStreamReplayAndLive(t *testing.T) {
	dir := t.TempDir()
	const total = 20
	for i := 0; i < 10; i++ {
		appendLog(t, dir, fmt.Sprintf(`{"index":%d,"key":"%s","status":"done"}`+"\n", i, key(i)))
	}
	s := NewStream(NewWatcher(openStore(t, dir)), 5*time.Millisecond)
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // live writer racing the subscriber
		defer wg.Done()
		for i := 10; i < total; i++ {
			appendLog(t, dir, fmt.Sprintf(`{"index":%d,"key":"%s","status":"done"}`+"\n", i, key(i)))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	ch := subscribe(t, s, 0)
	var got []Event
	deadline := time.After(5 * time.Second)
	for len(got) < total {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatal("subscriber dropped")
			}
			got = append(got, e)
		case <-deadline:
			t.Fatalf("timeout: got %d/%d events", len(got), total)
		}
	}
	wg.Wait()
	for i, e := range got {
		if e.ID != int64(i+1) {
			t.Fatalf("IDs not monotonic from 1: event %d has ID %d", i, e.ID)
		}
		if e.Run != i {
			t.Fatalf("events out of order: position %d has run %d", i, e.Run)
		}
	}
	s.Unsubscribe(ch)

	// Reconnect mid-stream: only events after Last-Event-ID replay.
	ch2 := subscribe(t, s, 15)
	var replayed []Event
	deadline = time.After(5 * time.Second)
	for len(replayed) < total-15 {
		select {
		case e, ok := <-ch2:
			if !ok {
				t.Fatal("reconnect subscriber dropped")
			}
			replayed = append(replayed, e)
		case <-deadline:
			t.Fatalf("reconnect timeout: got %d/%d", len(replayed), total-15)
		}
	}
	if replayed[0].ID != 16 {
		t.Fatalf("replay started at %d, want 16", replayed[0].ID)
	}
	s.Unsubscribe(ch2)
}

// The poll loop runs only while subscribed: Subscribe starts it,
// Unsubscribe of the last subscriber stops it, and a later Subscribe
// restarts it and still sees events from the idle gap's ring.
func TestStreamLoopStartsAndStops(t *testing.T) {
	dir := t.TempDir()
	s := NewStream(NewWatcher(openStore(t, dir)), time.Millisecond)
	defer s.Close()

	ch := subscribe(t, s, 0)
	appendLog(t, dir, fmt.Sprintf(`{"index":0,"key":"%s","status":"done"}`+"\n", key(0)))
	select {
	case e := <-ch:
		if e.ID != 1 {
			t.Fatalf("first event ID %d", e.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event while subscribed")
	}
	s.Unsubscribe(ch)
	time.Sleep(20 * time.Millisecond) // let the loop observe zero subscribers and exit

	// With no loop running, the append sits unobserved...
	appendLog(t, dir, fmt.Sprintf(`{"index":1,"key":"%s","status":"done"}`+"\n", key(1)))
	// ...until the next subscriber restarts it.
	ch2 := subscribe(t, s, 1)
	select {
	case e := <-ch2:
		if e.ID != 2 || e.Run != 1 {
			t.Fatalf("restarted loop delivered %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not restart on re-subscribe")
	}
	s.Unsubscribe(ch2)
}

// Close drops every subscriber and further subscribes get a closed
// channel.
func TestStreamClose(t *testing.T) {
	dir := t.TempDir()
	s := NewStream(NewWatcher(openStore(t, dir)), time.Millisecond)
	ch := subscribe(t, s, 0)
	s.Close()
	if _, ok := <-ch; ok {
		t.Fatal("subscriber channel not closed on Close")
	}
	if _, ok := <-subscribe(t, s, 0); ok {
		t.Fatal("post-Close subscribe returned a live channel")
	}
}

// A stream takes maxSubscribers subscribers and refuses the next one
// until an Unsubscribe frees a slot.
func TestStreamCapsSubscribers(t *testing.T) {
	s := NewStream(NewWatcher(openStore(t, t.TempDir())), time.Millisecond)
	defer s.Close()
	subs := make([]<-chan Event, maxSubscribers)
	for i := range subs {
		subs[i] = subscribe(t, s, 0)
	}
	if ch, err := s.Subscribe(0); !errors.Is(err, ErrFull) || ch != nil {
		t.Fatalf("subscriber %d: channel %v, err %v; want ErrFull", maxSubscribers+1, ch, err)
	}
	s.Unsubscribe(subs[0])
	subscribe(t, s, 0)
	if _, err := s.Subscribe(0); !errors.Is(err, ErrFull) {
		t.Fatalf("the freed slot was taken, then Subscribe answered %v; want ErrFull", err)
	}
}

// A ledger compaction (campaign gc renames a shorter runs/index.json
// into place) under a live watcher re-announces nothing: the surviving
// runs were already run-executed events, and only a key appended to the
// new file is news.
func TestWatcherSurvivesLedgerCompaction(t *testing.T) {
	dir := t.TempDir()
	index := filepath.Join(dir, "runs", "index.json")
	add := func(i int) {
		t.Helper()
		if err := fleet.AppendIndex(index, fleet.IndexEntry{Key: key(i), Run: i, Owner: "w1", Cache: "miss"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		add(i)
	}
	w := NewWatcher(openStore(t, dir))
	if evs, err := w.Poll(); err != nil || len(evs) != 4 {
		t.Fatalf("history: %+v err=%v", evs, err)
	}

	// Compact as archive.GC does: the ledger without one key, written
	// beside it and renamed over it.
	compact := func(drop int) {
		t.Helper()
		err := persist.WriteAtomic(index, func(out io.Writer) error {
			_, err := fleet.ScanIndex(index, 0, func(e fleet.IndexEntry) {
				if e.Key != key(drop) {
					line, _ := fleet.EncodeLine(e)
					out.Write(line)
				}
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	compact(1)
	if evs, err := w.Poll(); err != nil || len(evs) != 0 {
		t.Fatalf("compaction re-announced surviving runs: %+v err=%v", evs, err)
	}
	add(4)
	evs, err := w.Poll()
	if err != nil || len(evs) != 1 || evs[0].Kind != KindRunExecuted || evs[0].Key != key(4) {
		t.Fatalf("append after compaction: %+v err=%v", evs, err)
	}

	// A compacted ledger that outgrew the old offset before the watcher
	// looked again is still a new file: both appends are news, not only
	// the one past the stale offset.
	compact(0)
	add(5)
	add(6)
	evs, err = w.Poll()
	if err != nil || len(evs) != 2 || evs[0].Key != key(5) || evs[1].Key != key(6) {
		t.Fatalf("appends to a regrown compacted ledger: %+v err=%v", evs, err)
	}
}

// A manifest.log renamed over by a longer one is a new history: the
// watcher replays it from its start, not from the offset it had reached
// in the file that is gone.
func TestWatcherFollowsReplacedLog(t *testing.T) {
	dir := t.TempDir()
	line := func(i int) string {
		return fmt.Sprintf(`{"index":%d,"key":"%s","status":"done"}`+"\n", i, key(i))
	}
	appendLog(t, dir, line(10)+line(11))
	w := NewWatcher(openStore(t, dir))
	if evs, err := w.Poll(); err != nil || len(evs) != 2 {
		t.Fatalf("history: %+v err=%v", evs, err)
	}

	err := persist.WriteAtomic(filepath.Join(dir, "manifest.log"), func(out io.Writer) error {
		_, err := io.WriteString(out, line(10)+line(11)+line(12)+line(13))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := w.Poll()
	var runs []int
	for _, e := range evs {
		runs = append(runs, e.Run)
	}
	if err != nil || !slices.Equal(runs, []int{10, 11, 12, 13}) {
		t.Fatalf("got runs %v, want [10 11 12 13] (err=%v)", runs, err)
	}
}
