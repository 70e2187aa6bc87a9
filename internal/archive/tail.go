package archive

import (
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// What a poller reads besides the views: the streamed manifest from a
// byte offset, the leases and the finalize flag. A long-lived follower
// (events.Watcher) holds a Snapshot and takes its Follow delta instead of
// keeping offsets of its own; TailLog is the stateless form, under
// fleet.ScanLines' discipline (only complete lines are consumed; a torn
// trailing fragment stays unconsumed until the writer finishes it;
// garbage complete lines are skipped but consumed; a file that shrank
// below the offset is re-read from the start).

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
// manifest line (campaign.DecodeEntry) from offset on.
func scanLog(path string, offset int64, fn func(campaign.Entry)) (int64, error) {
	return fleet.ScanLines(path, offset, func(line []byte) {
		if e, ok := campaign.DecodeEntry(line); ok {
			fn(e)
		}
	})
}

// Leases snapshots the lease directory (sorted by key, tolerant of
// mid-write files) — the Watcher diffs consecutive snapshots into
// claimed/reclaimed events.
func (s *Store) Leases() ([]fleet.Lease, error) {
	return fleet.Leases(s.at.Leases())
}

// Finalized reports whether the campaign has been finalized (the
// aggregate campaign.csv exists).
func (s *Store) Finalized() bool { return finalized(s.at) }

func finalized(at campaign.Dir) bool {
	_, err := os.Stat(at.CSV())
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
