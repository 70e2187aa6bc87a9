// Package archive is the read path over a campaign output directory —
// the query layer that turns the content-addressed result cache from a
// side effect of execution into a served product.
//
// The directory (campaign.Dir spells its layout) is the system of record
// for every measurement a campaign produces. A Store gives everything
// but the executors — dashboards, CI regression gates, fleet operators,
// the HTTP service in archive/serve — a typed API over it: enumerate runs,
// fetch one archived document, fuse ledger + leases + manifests into
// live fleet progress, compute per-axis marginal curves, diff two
// archives for regressions, and govern the cache's size (GC).
//
// # Read-path invariants
//
// The Store is strictly read-only (GC, the one mutating entry point, is
// an explicit maintenance operation) and every query tolerates
// concurrent writers, because a live fleet is the normal case, not an
// edge case:
//
//   - The ledger and the streamed manifest are append-only and read
//     through one line reader (fleet.ScanLines): torn, garbage and
//     oversized (over fleet.MaxLine) lines are skipped, never an error.
//     The first ledger record per key wins (fleet.Ledger), so a query
//     can never double-count a run however many idempotent
//     re-executions the ledger recorded.
//   - Archives are published by atomic rename, so a document either
//     loads whole or is skipped as in-flight; *.tmp-* siblings are
//     never archives (fleet.IsArchiveKey filters them).
//   - Leases and manifests are read best-effort: one mid-publication
//     file degrades that entry, never the query.
//   - A Store keeps nothing between calls: each query is a view (Runs,
//     Get, Status and Marginals are written once, on Snapshot) of a
//     Snapshot folded from nothing — O(archive) per call — so a Store
//     opened before a writer started still observes its progress, and
//     it is the differential oracle for the long-lived Snapshot the HTTP
//     handler advances by reading only what was appended, and listing
//     runs/ again only when the directory's facts or the ledger or log
//     moved. Either way a view reads fresh what the Snapshot does not
//     hold: the leases, one result document. Stamp() gives pollers a
//     cheap change detector (the ETag the HTTP service serves).
package archive

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/persist"
)

// Store is a typed, read-only view of one campaign output directory.
// Methods are safe for concurrent use and against concurrent writers;
// each call reads the directory fresh.
type Store struct {
	// at is the directory as the campaign layout: the Store never spells
	// a file name of the archive itself.
	at campaign.Dir
	// stamped are the files Stamp() stats, in its order, asked of the
	// layout once so that a poll joins no path.
	stamped [4]string
}

// Open opens the campaign archive rooted at dir. The directory must
// exist, but may be empty or mid-campaign: a Store over a directory a
// fleet is still writing answers queries about the progress so far.
func Open(dir string) (*Store, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("archive: %s is not a directory", dir)
	}
	at := campaign.Dir(dir)
	return &Store{at: at, stamped: [...]string{at.Index(), at.Log(), at.Manifest(), at.CSV()}}, nil
}

// Dir returns the archive directory this store reads.
func (s *Store) Dir() string { return string(s.at) }

// RunInfo is one archived (or ledger-recorded) run as the read path
// sees it: the union of the ledger's attribution record and the archive
// file's presence. A run can appear with Archived=false — the ledger
// line landed but the archive was GC'd or is mid-rename — and with an
// empty Owner — an archive that predates the ledger.
type RunInfo struct {
	// Key is the run's content address (the archive is runs/<key>.json).
	Key string `json:"key"`
	// Run and Scenario echo the ledger record of the executing cell;
	// Run is -1 when the run is known only from the directory scan.
	Run      int    `json:"run"`
	Scenario string `json:"scenario,omitempty"`
	// Backend is the measurement substrate the ledger attributes the run
	// to ("sim", "wire"); empty for pre-backend ledgers and scan-only
	// keys.
	Backend string `json:"backend,omitempty"`
	// Owner is the worker the ledger attributes the execution to.
	Owner string `json:"owner,omitempty"`
	// WallSeconds and CompletedUnix are the ledger's execution record.
	WallSeconds   float64 `json:"wall_seconds,omitempty"`
	CompletedUnix float64 `json:"completed_unix,omitempty"`
	// Archived reports whether runs/<key>.json exists right now; Bytes
	// is its size when it does.
	Archived bool  `json:"archived"`
	Bytes    int64 `json:"bytes,omitempty"`
}

// runInfo is the ledger's half of a RunInfo; the archive file's half
// (Archived, Bytes) is filled in by whoever looks at the directory.
func runInfo(e fleet.IndexEntry) RunInfo {
	return RunInfo{
		Key:           e.Key,
		Run:           e.Run,
		Scenario:      e.Scenario,
		Backend:       e.Backend,
		Owner:         e.Owner,
		WallSeconds:   e.WallSeconds,
		CompletedUnix: e.CompletedUnix,
	}
}

// archived calls fn for every archive document in at's runs/, in key
// order. Anything else there (the ledger, *.tmp-* siblings, strays) is
// not an archive; a missing runs/ is an empty archive.
func archived(at campaign.Dir, fn func(key string, d os.DirEntry)) error {
	dir, err := os.ReadDir(at.Runs())
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, d := range dir {
		if key, ok := strings.CutSuffix(d.Name(), ".json"); ok && !d.IsDir() && fleet.IsArchiveKey(key) {
			fn(key, d)
		}
	}
	return nil
}

// Runs enumerates the archive: every run the ledger has recorded plus
// every archive file on disk, exactly once per key, in ledger append
// order with scan-only keys (archives without a ledger line) following
// sorted by key. It never loads document bodies — listing a million-run
// archive costs one ledger read and one directory scan.
func (s *Store) Runs() ([]RunInfo, error) {
	sn := s.Snapshot()
	if err := sn.advanceLedger(nil); err != nil {
		return nil, err
	}
	if err := sn.advanceRuns(true); err != nil {
		return nil, err
	}
	return sn.Runs()
}

// Runs is Store.Runs over the ledger and the runs/ listing as of the
// last Advance.
func (s *Snapshot) Runs() ([]RunInfo, error) {
	// Grow leaves an empty archive's listing nil: it has always encoded as null.
	runs := slices.Grow([]RunInfo(nil), len(s.ledger.First))
	for _, e := range s.ledger.First {
		runs = append(runs, runInfo(e))
	}
	for _, d := range s.docs {
		if i, ok := s.ledger.At[d.key]; ok {
			runs[i].Archived = true
			runs[i].Bytes = d.size
			continue
		}
		runs = append(runs, RunInfo{Key: d.key, Run: -1, Archived: true, Bytes: d.size})
	}
	return runs, nil
}

// RunDetail is one run in full: its listing record plus the archived
// result document.
type RunDetail struct {
	RunInfo
	// Doc is the archived result; nil when the archive file is absent
	// (the ledger knows the run but the document was GC'd).
	Doc *persist.ResultDoc `json:"doc,omitempty"`
}

// Get fetches one run by content key: the ledger's attribution record
// (when present) and the archived document (when present). A key that
// is neither ledgered nor archived is an error; so is a key that is not
// a content address at all (which also rejects path traversal through
// user-supplied keys).
func (s *Store) Get(key string) (*RunDetail, error) {
	sn := s.Snapshot()
	if err := sn.advanceLedger(nil); err != nil {
		return nil, err
	}
	return sn.Get(key)
}

// Get is Store.Get over the ledger as of the last Advance and the
// document as of now.
func (s *Snapshot) Get(key string) (*RunDetail, error) {
	if !fleet.IsArchiveKey(key) {
		return nil, fmt.Errorf("archive: %q: %w (want a sha256 hex digest)", key, ErrBadKey)
	}
	d := &RunDetail{RunInfo: RunInfo{Key: key, Run: -1}}
	if i, ok := s.ledger.At[key]; ok {
		d.RunInfo = runInfo(s.ledger.First[i])
	}
	path := s.at.Archive(key)
	if fi, err := os.Stat(path); err == nil {
		if doc, err := persist.LoadResult(path); err == nil {
			d.Archived = true
			d.Bytes = fi.Size()
			d.Doc = doc
		}
		// A document present but unreadable is mid-rename or torn: report
		// the run as not (yet) archived rather than failing the query.
	}
	if d.Run < 0 && !d.Archived {
		return nil, fmt.Errorf("archive: run %s: %w", key, os.ErrNotExist)
	}
	return d, nil
}

// Stamp is the archive's cheap change detector: a string that changes
// whenever the ledger, the streamed manifest, the cumulative manifest
// or the finalized aggregate change, and is stable otherwise. The HTTP
// service keys its ETag on it, so pollers of an idle (or
// between-completions) archive pay a handful of stats, not a re-read.
// Lease heartbeats are deliberately excluded: they refresh every TTL/3
// without changing any completed result.
//
// The string is the four files' "size.mtime" (mtime in Unix
// nanoseconds; "-" for a file that is not there), ';'-separated, in
// that order. It is appended into one stack buffer, so a call costs the
// four stats and the string: the stamp is on every request's path.
func (s *Store) Stamp() string {
	var buf [4*41 + 3]byte // four parts of two int64s and a dot, three separators
	b := buf[:0]
	for i, path := range s.stamped {
		if i > 0 {
			b = append(b, ';')
		}
		fi, err := os.Stat(path)
		if err != nil {
			b = append(b, '-')
			continue
		}
		b = strconv.AppendInt(b, fi.Size(), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, fi.ModTime().UnixNano(), 10)
	}
	return string(b)
}
