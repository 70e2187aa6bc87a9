package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newTracker(t *testing.T, dir, owner string, ttl time.Duration) *Tracker {
	t.Helper()
	tr, err := New(dir, owner, ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// The claim is the filesystem's atomic test-and-set: exactly one of two
// trackers wins a key, and the loser learns who holds it.
func TestClaimIsExclusive(t *testing.T) {
	dir := t.TempDir()
	a := newTracker(t, dir, "a", time.Minute)
	b := newTracker(t, dir, "b", time.Minute)

	ok, holder, err := a.Claim("k1")
	if err != nil || !ok || holder != "a" {
		t.Fatalf("first claim: ok=%v holder=%q err=%v", ok, holder, err)
	}
	ok, holder, err = b.Claim("k1")
	if err != nil || ok {
		t.Fatalf("second claim won: ok=%v err=%v", ok, err)
	}
	if holder != "a" {
		t.Fatalf("loser sees holder %q, want a", holder)
	}
	// Re-claiming our own key is refused (the caller already has it).
	if ok, holder, _ := a.Claim("k1"); ok || holder != "a" {
		t.Fatalf("self re-claim: ok=%v holder=%q", ok, holder)
	}
}

func TestReleaseFreesTheKey(t *testing.T) {
	dir := t.TempDir()
	a := newTracker(t, dir, "a", time.Minute)
	b := newTracker(t, dir, "b", time.Minute)
	if ok, _, _ := a.Claim("k"); !ok {
		t.Fatal("claim failed")
	}
	if err := a.Release("k"); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := b.Claim("k"); !ok {
		t.Fatal("released key not claimable")
	}
	// Releasing a key we never held is a no-op, not an error.
	if err := a.Release("never-held"); err != nil {
		t.Fatal(err)
	}
}

// A lease whose heartbeat is older than its TTL is a crashed worker's; a
// claimer removes it and retakes the key at the next epoch. A fresh lease
// is never stolen.
func TestStaleLeaseIsReclaimed(t *testing.T) {
	dir := t.TempDir()
	crashed := newTracker(t, dir, "crashed", time.Minute)
	if ok, _, _ := crashed.Claim("k"); !ok {
		t.Fatal("claim failed")
	}

	claimer := newTracker(t, dir, "claimer", time.Minute)
	// Fresh lease: not claimable.
	if ok, holder, _ := claimer.Claim("k"); ok || holder != "crashed" {
		t.Fatalf("stole a fresh lease: ok=%v holder=%q", ok, holder)
	}
	// Simulate the crash by backdating the claimer's view of "now" past
	// the lease's own TTL promise.
	claimer.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	ok, holder, err := claimer.Claim("k")
	if err != nil || !ok {
		t.Fatalf("stale lease not reclaimed: ok=%v holder=%q err=%v", ok, holder, err)
	}
	doc, err := readLease(filepath.Join(dir, "k.json"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Owner != "claimer" || doc.Epoch != 2 {
		t.Fatalf("reclaimed lease = owner %q epoch %d, want claimer/2", doc.Owner, doc.Epoch)
	}
}

// The heartbeat loop keeps a held lease fresh indefinitely: after many
// TTLs, a peer still cannot reclaim it — and once the holder closes, the
// key frees immediately.
func TestHeartbeatKeepsLeaseFresh(t *testing.T) {
	dir := t.TempDir()
	// The TTL must outlast scheduler stalls on a loaded CI box, while the
	// test still spans several TTLs of heartbeats.
	holder := newTracker(t, dir, "holder", 300*time.Millisecond)
	if ok, _, _ := holder.Claim("k"); !ok {
		t.Fatal("claim failed")
	}
	peer := newTracker(t, dir, "peer", 300*time.Millisecond)
	deadline := time.Now().Add(1200 * time.Millisecond) // four TTLs
	for time.Now().Before(deadline) {
		if ok, _, _ := peer.Claim("k"); ok {
			t.Fatal("peer reclaimed a heartbeating lease")
		}
		time.Sleep(50 * time.Millisecond)
	}
	holder.Close()
	if ok, _, _ := peer.Claim("k"); !ok {
		t.Fatal("key not claimable after holder closed")
	}
}

// An unreadable lease (torn by a crash mid-write) must not wedge the key:
// it is reclaimed once its mtime ages past the TTL, but never while fresh.
func TestTornLeaseAgesOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"owner":"tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, dir, "a", time.Minute)
	if ok, _, _ := tr.Claim("k"); ok {
		t.Fatal("claimed over a fresh torn lease")
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := tr.Claim("k"); !ok {
		t.Fatal("aged-out torn lease not reclaimed")
	}
}

// Exactly-once under contention: many claimers race many keys under the
// race detector; every key is won by exactly one.
func TestConcurrentClaimersWinExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	const claimers, keys = 8, 24
	trackers := make([]*Tracker, claimers)
	for i := range trackers {
		trackers[i] = newTracker(t, dir, fmt.Sprintf("w%d", i), time.Minute)
	}
	wins := make([][]string, claimers)
	var wg sync.WaitGroup
	for i, tr := range trackers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%03d", k)
				ok, _, err := tr.Claim(key)
				if err != nil {
					t.Errorf("claim %s: %v", key, err)
					return
				}
				if ok {
					wins[i] = append(wins[i], key)
				}
			}
		}()
	}
	wg.Wait()
	won := make(map[string]string)
	for i, keysWon := range wins {
		for _, k := range keysWon {
			if prev, dup := won[k]; dup {
				t.Fatalf("key %s claimed by both %s and w%d", k, prev, i)
			}
			won[k] = fmt.Sprintf("w%d", i)
		}
	}
	if len(won) != keys {
		t.Fatalf("%d keys claimed, want %d", len(won), keys)
	}
}

func TestNewRejectsEmptyOwner(t *testing.T) {
	if _, err := New(t.TempDir(), "", time.Minute); err == nil {
		t.Fatal("empty owner accepted")
	}
}
