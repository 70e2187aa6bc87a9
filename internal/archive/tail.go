package archive

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// Tail support: incremental reads over the archive's append-only files,
// the primitive the events.Watcher builds on. A tail call hands back the
// records that appeared since a byte offset plus the next offset to
// resume from, under fleet.ScanLines' discipline (only complete lines
// are consumed; a torn trailing fragment stays unconsumed until the
// writer finishes it; garbage complete lines are skipped but consumed;
// a file that shrank below the offset is re-read from the start).

// TailLog returns the manifest.log entries appended since offset and
// the offset to resume from. Unlike Marginals' finished cells it does
// not deduplicate — the tail is a change feed, and re-appends are
// events too.
func (s *Store) TailLog(offset int64) ([]campaign.Entry, int64, error) {
	var entries []campaign.Entry
	next, err := scanLog(s.at.Log(), offset, func(e campaign.Entry) { entries = append(entries, e) })
	return entries, next, err
}

// scanLog is fleet.ScanLines over a streamed manifest: fn sees every
// line from offset on that decodes to a keyed cell entry.
func scanLog(path string, offset int64, fn func(campaign.Entry)) (int64, error) {
	return fleet.ScanLines(path, offset, func(line []byte) {
		var e campaign.Entry
		if json.Unmarshal(line, &e) == nil && e.Key != "" {
			fn(e)
		}
	})
}

// TailLedger returns the runs/index.json records appended since offset
// and the offset to resume from, with the same tolerance as TailLog.
func (s *Store) TailLedger(offset int64) ([]fleet.IndexEntry, int64, error) {
	var entries []fleet.IndexEntry
	next, err := fleet.ScanIndex(s.at.Index(), offset, func(e fleet.IndexEntry) { entries = append(entries, e) })
	return entries, next, err
}

// Leases snapshots the lease directory (sorted by key, tolerant of
// mid-write files) — the Watcher diffs consecutive snapshots into
// claimed/reclaimed events.
func (s *Store) Leases() ([]fleet.Lease, error) {
	return fleet.Leases(s.at.Leases())
}

// Finalized reports whether the campaign has been finalized (the
// aggregate campaign.csv exists).
func (s *Store) Finalized() bool {
	_, err := os.Stat(s.at.CSV())
	return err == nil
}

// TracesStamp is the change detector for the traces/ subdirectory,
// which Stamp() deliberately excludes (traces are observability output
// and must not churn archive ETags). The phases plot keys its ETag on
// Stamp + TracesStamp.
func (s *Store) TracesStamp() string {
	dir, err := os.ReadDir(s.at.Traces())
	if err != nil {
		return "-"
	}
	var n int
	var size, mtime int64
	for _, d := range dir {
		fi, err := d.Info()
		if err != nil {
			continue
		}
		n++
		size += fi.Size()
		if t := fi.ModTime().UnixNano(); t > mtime {
			mtime = t
		}
	}
	return fmt.Sprintf("%d.%d.%d", n, size, mtime)
}
