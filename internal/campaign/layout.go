package campaign

import (
	"errors"
	"path/filepath"

	"repro/internal/fleet"
)

// Dir is a campaign archive directory. Its methods are the one place the
// directory's layout is spelled — the executor, the archive read path,
// GC and POST /ingest all ask a Dir where a file lives (`make
// layout-check` holds everything else to that), so a new file or a moved
// one is one edit here:
//
//	runs/<key>.json         archived result documents, by content key
//	runs/index.json         the execution ledger (one line per fresh run)
//	leases/<key>.json       fleet claims (internal/fleet)
//	manifests/<owner>.json  each fleet worker's invocation manifest
//	manifest.log            the streamed manifest (one line per cell)
//	manifest.json           the invocation (fleet: cumulative) manifest
//	campaign.csv            the finalized aggregate table
//	summary.txt             the same table, rendered for reading
//	traces/<key>.jsonl      per-run phase traces (`campaign run -trace`)
type Dir string

func (d Dir) Runs() string      { return filepath.Join(string(d), "runs") }
func (d Dir) Index() string     { return filepath.Join(string(d), "runs", "index.json") }
func (d Dir) Leases() string    { return filepath.Join(string(d), "leases") }
func (d Dir) Manifests() string { return filepath.Join(string(d), "manifests") }
func (d Dir) Log() string       { return filepath.Join(string(d), "manifest.log") }
func (d Dir) Manifest() string  { return filepath.Join(string(d), "manifest.json") }
func (d Dir) CSV() string       { return filepath.Join(string(d), "campaign.csv") }
func (d Dir) Summary() string   { return filepath.Join(string(d), "summary.txt") }
func (d Dir) Traces() string    { return filepath.Join(string(d), "traces") }

// Archive is the result document of the run with content key key.
func (d Dir) Archive(key string) string { return filepath.Join(string(d), "runs", key+".json") }

// OwnerManifest is one fleet worker's invocation manifest.
func (d Dir) OwnerManifest(owner string) string {
	return filepath.Join(d.Manifests(), owner+".json")
}

// Record is the one writer of "a cell finished". A fresh execution — a
// done cell computed (cache "miss") by a named owner — first gets its
// ledger line, so per-owner attribution agrees wherever the entry is
// recorded (the executing worker's archive, or a hub it reports to);
// hits, dups and failures executed nothing and are never ledgered. Then
// every entry is appended to the streamed manifest: one JSON line per
// completion, flushed as it happens, so a long campaign reports progress
// and a killed one loses nothing — the log plus the archives reconstruct
// everything manifest.json would have said. Both appends are whole-line
// O_APPEND writes shared by all fleet workers. The two are attempted
// independently (the ledger is advisory, archives are the ground truth)
// and their errors joined; the caller decides whether that is fatal.
func Record(d Dir, e Entry) error {
	var ledgerErr error
	if e.Status == "done" && e.Cache == "miss" && e.Owner != "" {
		ledgerErr = fleet.AppendIndex(d.Index(), fleet.IndexEntry{
			Key:           e.Key,
			Run:           e.Index,
			Scenario:      e.Scenario,
			Backend:       e.Backend,
			Owner:         e.Owner,
			Cache:         e.Cache,
			WallSeconds:   e.WallSeconds,
			CompletedUnix: fleet.NowUnix(),
		})
	}
	return errors.Join(ledgerErr, fleet.AppendLine(d.Log(), e))
}
