package archive

import (
	"maps"
	"sort"
	"time"

	"repro/internal/fleet"
)

// Status is the live progress of a campaign directory, fused from the
// execution ledger (what has run, by whom), the lease directory (what
// is running right now), the per-owner manifests (what each worker saw)
// and the finalized artifacts (whether quorum completion happened).
// All counts are exactly-once: the ledger's first record per key wins,
// so idempotent post-crash re-executions never inflate them.
type Status struct {
	// Dir is the archive directory.
	Dir string `json:"dir"`
	// Campaign and GridRuns come from the cumulative manifest.json when
	// one has been finalized: the campaign's name and full grid size.
	Campaign string `json:"campaign,omitempty"`
	GridRuns int    `json:"grid_runs,omitempty"`
	// Finalized reports whether the shared aggregate (campaign.csv) has
	// been published — quorum completion in fleet mode.
	Finalized bool `json:"finalized"`
	// Archived counts archive documents on disk; Executed counts unique
	// ledger-recorded executions; LedgerLines counts well-formed ledger
	// lines (Executed < LedgerLines means a crash forced an idempotent
	// re-execution).
	Archived    int `json:"archived"`
	Executed    int `json:"executed"`
	LedgerLines int `json:"ledger_lines"`
	// InFlight counts live leases; StaleLeases counts leases whose
	// holder has broken its heartbeat promise (crashed workers whose
	// runs will be reclaimed).
	InFlight    int `json:"in_flight"`
	StaleLeases int `json:"stale_leases"`
	// Backends counts the unique executed runs per measurement substrate,
	// from the ledger's attribution (first record per key; runs recorded
	// by pre-backend ledgers count under "sim", the only backend that
	// existed then).
	Backends map[string]int `json:"backends,omitempty"`
	// BackendSeconds sums the ledger's per-run wall-clock per substrate
	// (same exactly-once discipline), so per-backend mean run durations
	// are BackendSeconds[b] / Backends[b].
	BackendSeconds map[string]float64 `json:"backend_seconds,omitempty"`
	// Owners is the per-worker view, sorted by owner id.
	Owners []OwnerStatus `json:"owners,omitempty"`
	// Leases lists every current lease, sorted by key.
	Leases []LeaseStatus `json:"leases,omitempty"`
}

// OwnerStatus is one worker's contribution: its exactly-once execution
// count and wall-clock from the ledger, plus the summary of its own
// invocation manifest when it has written one.
type OwnerStatus struct {
	Owner string `json:"owner"`
	// Executed and WallSeconds sum this owner's ledger attributions
	// (first record per key).
	Executed    int     `json:"executed"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Manifest summarises manifests/<owner>.json when present.
	Manifest *ManifestSummary `json:"manifest,omitempty"`
}

// ManifestSummary is the headline of one invocation manifest.
type ManifestSummary struct {
	Runs        int     `json:"runs"`
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
	Dups        int     `json:"dups"`
	Failures    int     `json:"failures"`
	WallSeconds float64 `json:"wall_seconds"`
}

// LeaseStatus is one in-flight claim. Timestamps are the lease
// document's raw Unix seconds — they change only when the holder
// heartbeats, so repeated renderings of an unchanged lease are
// byte-identical.
type LeaseStatus struct {
	Key           string  `json:"key"`
	Owner         string  `json:"owner"`
	Epoch         int     `json:"epoch"`
	AcquiredUnix  float64 `json:"acquired_unix"`
	HeartbeatUnix float64 `json:"heartbeat_unix"`
	TTLSeconds    float64 `json:"ttl_seconds"`
	// Stale marks a lease whose heartbeat is older than its own
	// promised TTL: the holder crashed and any worker may reclaim it.
	Stale bool `json:"stale"`
}

// Status fuses the directory's coordination state into live fleet
// progress. It is safe against concurrent writers: torn ledger lines
// are skipped, mid-publication leases and manifests degrade to absent
// entries, and counts never exceed the exactly-once truth.
func (s *Store) Status() (*Status, error) {
	sn := s.Snapshot()
	if err := sn.advanceLedger(nil); err != nil {
		return nil, err
	}
	if err := sn.advanceHeads(); err != nil {
		return nil, err
	}
	if err := sn.advanceRuns(true); err != nil {
		return nil, err
	}
	return sn.Status()
}

// Status is Store.Status over the ledger, the manifest heads and the
// runs/ listing as of the last Advance, and the leases and campaign.csv
// as of now.
func (s *Snapshot) Status() (*Status, error) {
	st := &Status{
		Dir:            string(s.at),
		Archived:       len(s.docs),
		Executed:       len(s.ledger.First),
		LedgerLines:    s.ledger.Lines,
		Backends:       maps.Clone(s.tally.backends),
		BackendSeconds: maps.Clone(s.tally.backendSeconds),
	}
	owners := make(map[string]*OwnerStatus, len(s.tally.owners))
	for name, o := range s.tally.owners {
		owners[name] = &o
	}
	owner := func(name string) *OwnerStatus {
		o := owners[name]
		if o == nil {
			o = &OwnerStatus{Owner: name}
			owners[name] = o
		}
		return o
	}

	leases, err := fleet.Leases(s.at.Leases())
	if err != nil {
		return nil, err
	}
	now := time.Now()
	for _, l := range leases {
		ls := LeaseStatus{
			Key:           l.Key,
			Owner:         l.Owner,
			Epoch:         l.Epoch,
			AcquiredUnix:  l.AcquiredUnix,
			HeartbeatUnix: l.HeartbeatUnix,
			TTLSeconds:    l.TTLSeconds,
			Stale:         l.StaleAt(now),
		}
		if ls.Stale {
			st.StaleLeases++
		} else {
			st.InFlight++
		}
		st.Leases = append(st.Leases, ls)
		owner(l.Owner)
	}

	for name, h := range s.heads {
		switch {
		case !h.ok:
			// mid-publication; the owner keeps its ledger counts
		case name == "":
			st.Campaign = h.Campaign
			st.GridRuns = h.Runs
		default:
			sum := h.ManifestSummary
			owner(name).Manifest = &sum
		}
	}
	for _, o := range owners {
		st.Owners = append(st.Owners, *o)
	}
	sort.Slice(st.Owners, func(i, j int) bool { return st.Owners[i].Owner < st.Owners[j].Owner })
	st.Finalized = finalized(s.at)
	return st, nil
}

// tally is Status's ledger half: the per-backend and per-owner counts and
// seconds of the ledger's first records. A Snapshot folds each first
// record into it as the ledger's fold takes it, in file order, so every
// sum adds the same terms in the same order as a fold of ledger.First
// would, bit for bit.
type tally struct {
	backends       map[string]int
	backendSeconds map[string]float64
	owners         map[string]OwnerStatus // Executed and WallSeconds
}

func (t *tally) add(e fleet.IndexEntry) {
	backend := e.Backend
	if backend == "" {
		backend = "sim"
	}
	if t.backends == nil {
		t.backends = make(map[string]int)
		t.backendSeconds = make(map[string]float64)
		t.owners = make(map[string]OwnerStatus)
	}
	t.backends[backend]++
	t.backendSeconds[backend] += e.WallSeconds
	if e.Owner == "" {
		return
	}
	o := t.owners[e.Owner]
	o.Owner = e.Owner
	o.Executed++
	o.WallSeconds += e.WallSeconds
	t.owners[e.Owner] = o
}
