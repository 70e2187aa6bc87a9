// Package fleet coordinates any number of processes cooperatively
// executing one campaign against a shared archive directory.
//
// The campaign cache is content-addressed: a run's archive path is a pure
// function of its inputs, so two workers that execute the same run write
// byte-identical archives and a remote cache hit is always safe. What
// content addressing alone cannot provide is work *partitioning* — without
// coordination, N workers pointed at the same campaign would each execute
// every run. This package adds the missing piece: a per-run lease
// protocol over the shared directory, the same shape measurement farms
// use to hand sampling runs to independent workers.
//
// # The lease protocol
//
// A worker claims run <key> by creating leases/<key>.json with O_EXCL —
// the filesystem's atomic test-and-set, the only primitive the protocol
// needs from the shared directory. The lease document carries the owner
// id, an epoch (incremented each time the key is reclaimed), and a
// heartbeat timestamp that the holding Tracker refreshes in the
// background every TTL/3. Exactly one concurrent claimer wins; the others
// observe the holder and retry later.
//
// A lease whose heartbeat is older than its TTL is stale: by the lease
// contract the holder has crashed (a live holder refreshes three times
// per TTL), so any claimer may remove the lease and retake the key at the
// next epoch. Reclamation is a remove-then-create pair, not an atomic
// swap — POSIX offers no compare-and-swap on files — so two claimers
// racing a reclaim can, in a narrow window, both believe they hold the
// key. The protocol is safe anyway: run execution is idempotent (the
// archive write is a last-writer-wins rename of byte-identical content,
// see the bit-identity contract), so a duplicated execution after a crash
// costs only the duplicated work. Exactly-once execution is guaranteed in
// the absence of crashes, which is the strongest property a lease
// protocol over shared storage can offer.
//
// Staleness is judged by wall-clock timestamps in the lease document, so
// workers sharing an archive over a network filesystem are assumed to
// have clocks synchronised well inside the TTL — the usual NTP bound of
// milliseconds against TTLs of seconds to minutes.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/persist"
)

const leaseVersion = 1

// leaseDoc is the JSON content of leases/<key>.json.
type leaseDoc struct {
	Version int    `json:"version"`
	Owner   string `json:"owner"`
	// Epoch counts reclamations of this key: 1 on first claim, +1 each
	// time a stale lease is removed and the key retaken.
	Epoch         int     `json:"epoch"`
	AcquiredUnix  float64 `json:"acquired_unix"`
	HeartbeatUnix float64 `json:"heartbeat_unix"`
	// TTLSeconds is the holder's staleness promise: if the heartbeat is
	// ever older than this, the holder has crashed and the lease may be
	// reclaimed. Claimers honour the document's TTL, not their own, so
	// workers with different -lease-ttl settings interoperate.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// DefaultTTL is the lease staleness horizon used when none is given:
// long enough that a heartbeat every TTL/3 survives scheduling hiccups,
// short enough that a crashed worker's runs are retaken promptly.
const DefaultTTL = time.Minute

// Tracker manages this worker's leases under one directory: claiming,
// background heartbeating, and release. One Tracker serves any number of
// goroutines.
type Tracker struct {
	dir   string
	owner string
	ttl   time.Duration
	now   func() time.Time // injectable for staleness tests

	mu   sync.Mutex
	held map[string]int // key -> epoch we hold it at

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New opens a lease tracker rooted at dir (created if missing) and starts
// its heartbeat loop. ttl <= 0 uses DefaultTTL. Callers must Close the
// tracker when done; Close releases any leases still held.
func New(dir, owner string, ttl time.Duration) (*Tracker, error) {
	if owner == "" {
		return nil, fmt.Errorf("fleet: lease owner must not be empty")
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &Tracker{
		dir:   dir,
		owner: owner,
		ttl:   ttl,
		now:   time.Now,
		held:  make(map[string]int),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go t.heartbeatLoop()
	return t, nil
}

// TTL returns the staleness horizon this tracker promises in its leases.
func (t *Tracker) TTL() time.Duration { return t.ttl }

func (t *Tracker) leasePath(key string) string {
	return filepath.Join(t.dir, key+".json")
}

// Claim attempts to take the lease on key. It returns (true, own owner id)
// on success; (false, holder) when a live peer holds the key (holder may
// be empty if the lease could not be read); and a non-nil error only for
// filesystem failures. A stale lease — heartbeat older than the TTL the
// lease itself promises — is removed and the key retaken at the next
// epoch. Claiming a key this tracker already holds reports the tracker
// itself as the live holder.
func (t *Tracker) Claim(key string) (bool, string, error) {
	t.mu.Lock()
	_, ours := t.held[key]
	t.mu.Unlock()
	if ours {
		return false, t.owner, nil
	}
	path := t.leasePath(key)
	epoch := 1
	// Bounded retries: each pass either creates the lease, observes a live
	// holder, or removes a stale one and tries again. The bound only guards
	// against pathological create/remove interleavings with peers; two
	// passes suffice in every healthy schedule.
	for attempt := 0; attempt < 4; attempt++ {
		ok, err := t.createExclusive(path, epoch)
		if err != nil {
			return false, "", err
		}
		if ok {
			t.mu.Lock()
			t.held[key] = epoch
			t.mu.Unlock()
			mLeaseAcquired.Inc()
			return true, t.owner, nil
		}
		doc, err := readLease(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // released between create and read; retry
			}
			// Unreadable: a lease mid-publication or torn by a crash.
			// Judge staleness by mtime so a corrupt file cannot wedge the
			// key forever, but never steal a fresh one.
			st, serr := os.Stat(path)
			if serr != nil {
				if os.IsNotExist(serr) {
					continue
				}
				return false, "", serr
			}
			if t.now().Sub(st.ModTime()) <= t.ttl {
				return false, "", nil
			}
			os.Remove(path)
			continue
		}
		ttl := time.Duration(doc.TTLSeconds * float64(time.Second))
		if ttl <= 0 {
			ttl = t.ttl
		}
		if t.now().Sub(unixTime(doc.HeartbeatUnix)) <= ttl {
			mLeaseContended.Inc()
			return false, doc.Owner, nil // live holder
		}
		// Stale: the holder stopped heartbeating at least one TTL ago.
		// Remove and retake (see the package comment for why the narrow
		// remove/create race with another reclaimer is benign).
		os.Remove(path)
		mLeaseReclaimed.Inc()
		epoch = doc.Epoch + 1
	}
	return false, "", nil
}

// Release drops the lease on a key this tracker holds. If the key was
// reclaimed from under us (our heartbeat stalled past the TTL), the
// reclaimer's lease is left untouched. Releasing a key we do not hold is
// a no-op. The file operations run under the tracker mutex so a
// concurrent heartbeat refresh cannot resurrect the removed lease.
func (t *Tracker) Release(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch, ok := t.held[key]
	if !ok {
		return nil
	}
	delete(t.held, key)
	path := t.leasePath(key)
	if doc, err := readLease(path); err == nil {
		if doc.Owner != t.owner || doc.Epoch != epoch {
			return nil // reclaimed from us; not ours to remove
		}
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Close stops the heartbeat loop and releases every lease still held.
// Idempotent.
func (t *Tracker) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
	t.mu.Lock()
	keys := make([]string, 0, len(t.held))
	for k := range t.held {
		keys = append(keys, k)
	}
	t.mu.Unlock()
	for _, k := range keys {
		t.Release(k)
	}
}

// heartbeatLoop refreshes every held lease three times per TTL, so a live
// worker's leases are never observed stale.
func (t *Tracker) heartbeatLoop() {
	defer close(t.done)
	interval := t.ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.refresh()
		}
	}
}

// refresh republishes each held lease with a fresh heartbeat. A lease
// found owned by someone else means our heartbeat stalled past the TTL
// and a peer reclaimed the key; we drop it from the held set rather than
// clobber the reclaimer. Each key's read-verify-write runs under the
// tracker mutex so it cannot interleave with Release and resurrect a
// lease the holder just gave up.
func (t *Tracker) refresh() {
	t.mu.Lock()
	held := make(map[string]int, len(t.held))
	for k, e := range t.held {
		held[k] = e
	}
	t.mu.Unlock()
	for key, epoch := range held {
		t.mu.Lock()
		if cur, ok := t.held[key]; !ok || cur != epoch {
			t.mu.Unlock()
			continue // released (or re-claimed) since the snapshot
		}
		path := t.leasePath(key)
		doc, err := readLease(path)
		if err != nil || doc.Owner != t.owner || doc.Epoch != epoch {
			delete(t.held, key)
			t.mu.Unlock()
			continue
		}
		doc.HeartbeatUnix = unixSeconds(t.now())
		if writeLease(path, doc) == nil { // best-effort; next tick retries
			mLeaseHeartbeats.Inc()
		}
		t.mu.Unlock()
	}
}

// createExclusive attempts the atomic claim: create the lease file with
// O_EXCL and write the document. Returns (false, nil) when the file
// already exists.
func (t *Tracker) createExclusive(path string, epoch int) (bool, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, err
	}
	now := unixSeconds(t.now())
	doc := &leaseDoc{
		Version:       leaseVersion,
		Owner:         t.owner,
		Epoch:         epoch,
		AcquiredUnix:  now,
		HeartbeatUnix: now,
		TTLSeconds:    t.ttl.Seconds(),
	}
	data, err := json.Marshal(doc)
	if err != nil {
		f.Close()
		os.Remove(path)
		return false, err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(path)
		return false, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return false, err
	}
	return true, nil
}

// writeLease republishes a lease document atomically (temp + rename), so
// readers never observe a torn heartbeat refresh.
func writeLease(path string, doc *leaseDoc) error {
	return persist.WriteAtomic(path, func(w io.Writer) error {
		data, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	})
}

// readLease decodes a lease file.
func readLease(path string) (*leaseDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc leaseDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("fleet: lease %s: %w", path, err)
	}
	return &doc, nil
}

func unixSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}

func unixTime(sec float64) time.Time {
	return time.Unix(0, int64(sec*float64(time.Second)))
}
