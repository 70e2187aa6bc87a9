package archive

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
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
	st := &Status{Dir: s.Dir()}

	first, lines, err := fleet.Executions(s.at.Index())
	if err != nil {
		return nil, err
	}
	st.LedgerLines = lines
	owners := make(map[string]*OwnerStatus)
	for _, e := range first {
		st.Executed++
		backend := e.Backend
		if backend == "" {
			backend = "sim"
		}
		if st.Backends == nil {
			st.Backends = make(map[string]int)
			st.BackendSeconds = make(map[string]float64)
		}
		st.Backends[backend]++
		st.BackendSeconds[backend] += e.WallSeconds
		if e.Owner == "" {
			continue
		}
		o := owners[e.Owner]
		if o == nil {
			o = &OwnerStatus{Owner: e.Owner}
			owners[e.Owner] = o
		}
		o.Executed++
		o.WallSeconds += e.WallSeconds
	}

	if err := s.archived(func(string, os.DirEntry) { st.Archived++ }); err != nil {
		return nil, err
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
		if _, ok := owners[l.Owner]; !ok {
			owners[l.Owner] = &OwnerStatus{Owner: l.Owner}
		}
	}

	if mans, err := os.ReadDir(s.at.Manifests()); err == nil {
		for _, d := range mans {
			owner, ok := strings.CutSuffix(d.Name(), ".json")
			if !ok || d.IsDir() || owner == "" {
				continue
			}
			man, err := readManifest(s.at.OwnerManifest(owner))
			if err != nil {
				continue // mid-publication; the owner keeps its ledger counts
			}
			o := owners[owner]
			if o == nil {
				o = &OwnerStatus{Owner: owner}
				owners[owner] = o
			}
			o.Manifest = summarise(man)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	for _, o := range owners {
		st.Owners = append(st.Owners, *o)
	}
	sort.Slice(st.Owners, func(i, j int) bool { return st.Owners[i].Owner < st.Owners[j].Owner })

	if man, err := readManifest(s.at.Manifest()); err == nil {
		st.Campaign = man.Campaign
		st.GridRuns = man.Runs
	}
	st.Finalized = s.Finalized()
	return st, nil
}

// readManifest decodes one campaign manifest document. Manifests are
// written atomically, so a read either gets a whole document or the
// file is absent.
func readManifest(path string) (*campaign.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man campaign.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, err
	}
	return &man, nil
}

func summarise(man *campaign.Manifest) *ManifestSummary {
	return &ManifestSummary{
		Runs:        man.Runs,
		Hits:        man.Hits,
		Misses:      man.Misses,
		Dups:        man.Dups,
		Failures:    man.Failures,
		WallSeconds: man.WallSeconds,
	}
}
