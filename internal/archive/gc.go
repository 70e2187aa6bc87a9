package archive

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/persist"
)

// GCOptions bounds a long-lived archive. Zero values mean "no limit of
// that kind": GC with an all-zero options struct removes nothing but
// stale temp files.
type GCOptions struct {
	// MaxAge evicts archives whose completion time (the ledger's
	// record, falling back to file mtime) is older than this. 0 = no
	// age limit.
	MaxAge time.Duration
	// MaxRuns caps the archive count, evicting oldest-first beyond it
	// (LRU by completion time). 0 = no count limit.
	MaxRuns int
	// Current, when non-nil, is the key set of the campaign's current
	// expansion (current keyVersion, current grid) — see
	// campaign.Spec.Expand. It drives the keyVersion sweep: archives
	// whose key is not in the set are stale-version (or stale-grid)
	// and are removed regardless of age; archives in the set are the
	// live working set and are protected from age and count eviction.
	Current map[string]bool
	// DryRun reports what would be removed without removing anything.
	DryRun bool
}

// GCReport records one governance pass.
type GCReport struct {
	// Scanned counts archive documents considered; Removed and Kept
	// partition them (in a DryRun, Removed counts would-be removals).
	Scanned int `json:"scanned"`
	Removed int `json:"removed"`
	Kept    int `json:"kept"`
	// Protected counts archives exempt from eviction: leased, or in
	// the current key set and referenced by the ledger.
	Protected int `json:"protected"`
	// StaleVersion, Expired and Evicted list the removed keys by
	// reason: not in the current expansion, older than MaxAge, beyond
	// MaxRuns.
	StaleVersion []string `json:"stale_version,omitempty"`
	Expired      []string `json:"expired,omitempty"`
	Evicted      []string `json:"evicted,omitempty"`
	// Strays counts abandoned *.tmp-* siblings swept from runs/.
	Strays int `json:"strays"`
	// LedgerCompacted reports that runs/index.json was rewritten to
	// drop the removed keys' lines.
	LedgerCompacted bool `json:"ledger_compacted"`
}

// GC governs the archive's size. The invariants, in priority order:
//
//  1. A leased run is never removed — live or stale, a lease file means
//     a worker claims (or claimed) the run, and deleting underneath a
//     claim would turn the benign duplicate-execution race into lost
//     work. Stale leases belong to the fleet's reclaim path, not GC.
//  2. A run in the current expansion (opt.Current) that the ledger
//     references is never removed: it is the campaign's live working
//     set, whatever its age.
//  3. Everything else is governed: keys outside opt.Current are
//     stale-version archives and are swept when the set is known;
//     survivors older than MaxAge expire; and the count is capped at
//     MaxRuns, evicting oldest-first.
//
// After removals the ledger is compacted — rewritten atomically without
// the removed keys' lines — so ledger-driven readers (Status, resume at
// million-run scale) stay in step with the documents. GC is a
// maintenance operation: run it from one process at a time; a fleet
// completion that races the compaction window loses only its advisory
// ledger line, never its archive.
func (s *Store) GC(opt GCOptions) (*GCReport, error) {
	rep := &GCReport{}
	dir, err := os.ReadDir(s.at.Runs())
	if err != nil {
		if os.IsNotExist(err) {
			return rep, nil
		}
		return nil, err
	}

	leases, err := fleet.Leases(s.at.Leases())
	if err != nil {
		return nil, err
	}
	leased := make(map[string]bool, len(leases))
	for _, l := range leases {
		leased[l.Key] = true
	}
	first, _, err := fleet.Executions(s.at.Index())
	if err != nil {
		return nil, err
	}
	ledgered := make(map[string]float64, len(first)) // key -> completion time
	for _, e := range first {
		ledgered[e.Key] = e.CompletedUnix
	}

	type candidate struct {
		key string
		age time.Time
	}
	var governed []candidate
	now := time.Now()
	for _, d := range dir {
		name := d.Name()
		if d.IsDir() {
			continue
		}
		key, isArchive := strings.CutSuffix(name, ".json")
		if !isArchive || !fleet.IsArchiveKey(key) {
			// A stray — an abandoned temp file from a crashed writer. Sweep
			// it only once it is old enough that it cannot be an in-flight
			// write racing this pass (the ledger, like anything else that
			// is not a temp file, is left alone).
			if !strings.Contains(name, ".tmp-") {
				continue
			}
			if fi, err := d.Info(); err == nil && now.Sub(fi.ModTime()) > time.Hour {
				rep.Strays++
				if !opt.DryRun {
					os.Remove(filepath.Join(s.at.Runs(), name))
				}
			}
			continue
		}
		rep.Scanned++
		switch {
		case leased[key]:
			rep.Protected++
		case opt.Current != nil && !opt.Current[key]:
			rep.StaleVersion = append(rep.StaleVersion, key)
		case opt.Current != nil && opt.Current[key]:
			if _, ok := ledgered[key]; ok {
				rep.Protected++
			} else {
				governed = append(governed, candidate{key, s.completionTime(key, ledgered, d)})
			}
		default:
			governed = append(governed, candidate{key, s.completionTime(key, ledgered, d)})
		}
	}

	if opt.MaxAge > 0 {
		var rest []candidate
		cutoff := now.Add(-opt.MaxAge)
		for _, c := range governed {
			if c.age.Before(cutoff) {
				rep.Expired = append(rep.Expired, c.key)
			} else {
				rest = append(rest, c)
			}
		}
		governed = rest
	}
	if opt.MaxRuns > 0 {
		sort.Slice(governed, func(i, j int) bool { return governed[i].age.Before(governed[j].age) })
		total := rep.Protected + len(governed)
		for i := 0; total > opt.MaxRuns && i < len(governed); i++ {
			rep.Evicted = append(rep.Evicted, governed[i].key)
			total--
		}
	}

	sort.Strings(rep.StaleVersion)
	sort.Strings(rep.Expired)
	removed := make(map[string]bool)
	for _, group := range [][]string{rep.StaleVersion, rep.Expired, rep.Evicted} {
		for _, key := range group {
			removed[key] = true
			if !opt.DryRun {
				if err := os.Remove(s.at.Archive(key)); err != nil && !os.IsNotExist(err) {
					return nil, err
				}
			}
		}
	}
	rep.Removed = len(removed)
	rep.Kept = rep.Scanned - rep.Removed

	if rep.Removed > 0 && !opt.DryRun {
		if err := s.compactLedger(removed); err != nil {
			return nil, err
		}
		rep.LedgerCompacted = true
	}
	return rep, nil
}

// completionTime is the eviction clock for one archive: the ledger's
// completion stamp when it has one, the file's mtime otherwise.
func (s *Store) completionTime(key string, ledgered map[string]float64, d os.DirEntry) time.Time {
	if unix, ok := ledgered[key]; ok && unix > 0 {
		return time.Unix(0, int64(unix*float64(time.Second)))
	}
	if fi, err := d.Info(); err == nil {
		return fi.ModTime()
	}
	return time.Time{}
}

// compactLedger rewrites runs/index.json without the removed keys'
// lines, preserving the surviving lines' order and content (torn lines
// are dropped — they carried no information a reader would use).
func (s *Store) compactLedger(removed map[string]bool) error {
	entries, err := fleet.ReadIndex(s.at.Index())
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	return persist.WriteAtomic(s.at.Index(), func(w io.Writer) error {
		for _, e := range entries {
			if removed[e.Key] {
				continue
			}
			line, err := fleet.EncodeLine(e)
			if err != nil {
				return err
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	})
}
