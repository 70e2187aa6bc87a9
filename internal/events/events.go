// Package events turns the campaign archive's append-only files into a
// typed change feed. The archive was built to be *tailed* — the ledger
// and streamed manifest are whole-line O_APPEND records, leases are
// heartbeat files — and archive.Snapshot is the one tailer of them: a
// Watcher holds one and translates what each archive.Snapshot.Follow
// folds into events, under the same read-path discipline as the Store
// (torn lines skipped, replaced files refolded, mid-write files degraded,
// never failed). It adds only what is not an append-only file: the
// finalize transition and the lease diff. A Stream fans the resulting
// events out to a bounded number of subscribers with bounded replay — the
// engine behind the HTTP service's /events SSE endpoint and its live
// dashboard.
//
// Events are observability output, never a system of record: dropping
// one (a slow subscriber, a restarted watcher) loses a notification, not
// a result — the archive remains the ground truth and every event can be
// re-derived from it.
package events

import (
	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/fleet"
)

// Event kinds, in the rough order a campaign emits them.
const (
	// KindCellFinished fires per manifest.log "done" line: a grid cell
	// produced a result (Cache says whether it was computed, replayed
	// from the archive, or deduplicated within the grid).
	KindCellFinished = "cell-finished"
	// KindCellFailed fires per manifest.log "failed" line.
	KindCellFailed = "cell-failed"
	// KindRunExecuted fires once per key the ledger records: a fresh
	// execution published an archive document. Distinct from
	// KindCellFinished so consumers counting cache misses never
	// double-count cells.
	KindRunExecuted = "run-executed"
	// KindLeaseClaimed and KindLeaseReclaimed fire when a lease file
	// appears, or changes holder/epoch, between polls.
	KindLeaseClaimed   = "lease-claimed"
	KindLeaseReclaimed = "lease-reclaimed"
	// KindFinalized fires once when campaign.csv appears — the quorum
	// aggregate is published.
	KindFinalized = "finalized"
)

// Event is one observed archive change. ID is assigned by the Stream
// (monotonic per stream, 1-based) and doubles as the SSE event id, so a
// reconnecting consumer resumes exactly where it dropped.
type Event struct {
	ID   int64  `json:"id"`
	Kind string `json:"kind"`
	// Key is the run content address, where the change names one.
	Key string `json:"key,omitempty"`
	// Run/Scenario/Config/Backend echo the manifest or ledger record.
	Run      int    `json:"run,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Config   string `json:"config,omitempty"`
	Backend  string `json:"backend,omitempty"`
	// Owner attributes the change to a worker (executor or lease
	// holder).
	Owner string `json:"owner,omitempty"`
	// Cache is the cell disposition for cell events ("hit", "miss",
	// "dup").
	Cache string `json:"cache,omitempty"`
	// Epoch is the lease epoch for lease events.
	Epoch int `json:"epoch,omitempty"`
	// Q/NMI/WallSeconds carry the headline scores for finished cells.
	Q           float64  `json:"q,omitempty"`
	NMI         *float64 `json:"nmi,omitempty"`
	WallSeconds float64  `json:"wall_seconds,omitempty"`
	// Error is the failure message for failed cells.
	Error string `json:"error,omitempty"`
}

// Watcher incrementally diffs one archive into events. It is a pull
// API — each Poll returns the events since the previous Poll — and is
// not safe for concurrent Polls; the Stream serialises access, and a
// bare Watcher belongs to one goroutine.
//
// The first Poll replays the archive's full history, so a consumer
// attaching mid-campaign gets the complete picture, in order, before
// live changes.
type Watcher struct {
	store *archive.Store
	// sn is the Watcher's own fold, never a view's: a view's Advance
	// would fold records this feed then never hands over.
	sn        *archive.Snapshot
	leases    map[string]leaseState
	finalized bool
}

type leaseState struct {
	owner string
	epoch int
}

// NewWatcher returns a Watcher over the store. The store is read fresh
// on every Poll, so a Watcher opened before a fleet starts observes its
// whole lifecycle; it reads nothing until the first Poll.
func NewWatcher(store *archive.Store) *Watcher {
	return &Watcher{store: store, sn: store.Snapshot(), leases: make(map[string]leaseState)}
}

// Poll returns the events since the previous Poll, in this order: one
// per manifest.log record the Snapshot's Follow hands over, one per
// ledger key it hands over, the finalize transition, the lease diff. It
// never fails on torn or mid-write files (those degrade to fewer events
// this poll, delivered next poll); the error path is reserved for the
// archive becoming unreadable outright, and returns with the error the
// events folded before it, which the fold has moved past.
func (w *Watcher) Poll() ([]Event, error) {
	var evs []Event
	err := w.sn.Follow(archive.Changes{
		Cell: func(e campaign.Entry) { evs = append(evs, cellEvent(e)) },
		Run: func(e fleet.IndexEntry) {
			evs = append(evs, Event{Kind: KindRunExecuted, Key: e.Key, Run: e.Run, Scenario: e.Scenario,
				Backend: e.Backend, Owner: e.Owner, Cache: e.Cache, WallSeconds: e.WallSeconds})
		},
	})
	if err != nil {
		return evs, err
	}
	if !w.finalized && w.store.Finalized() {
		w.finalized = true
		evs = append(evs, Event{Kind: KindFinalized})
	}

	leases, err := w.store.Leases()
	if err == nil {
		next := make(map[string]leaseState, len(leases))
		for _, l := range leases {
			st := leaseState{owner: l.Owner, epoch: l.Epoch}
			next[l.Key] = st
			prev, seen := w.leases[l.Key]
			switch {
			case !seen:
				evs = append(evs, Event{
					Kind: KindLeaseClaimed, Key: l.Key, Owner: l.Owner, Epoch: l.Epoch,
				})
			case prev != st:
				evs = append(evs, Event{
					Kind: KindLeaseReclaimed, Key: l.Key, Owner: l.Owner, Epoch: l.Epoch,
				})
			}
		}
		// A vanished lease is a release (the cell finished or was
		// GC'd) — the cell event already tells that story, so removal
		// emits nothing.
		w.leases = next
	}
	return evs, nil
}

// cellEvent maps one streamed manifest entry to its event.
func cellEvent(e campaign.Entry) Event {
	kind := KindCellFinished
	if e.Status != "done" {
		kind = KindCellFailed
	}
	return Event{
		Kind:        kind,
		Key:         e.Key,
		Run:         e.Index,
		Scenario:    e.Scenario,
		Config:      e.Config,
		Backend:     e.Backend,
		Owner:       e.Owner,
		Cache:       e.Cache,
		Q:           e.Q,
		NMI:         e.NMI,
		WallSeconds: e.WallSeconds,
		Error:       e.Error,
	}
}
