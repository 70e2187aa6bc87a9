package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// ExecOptions configures one campaign invocation.
type ExecOptions struct {
	// OutDir is the campaign archive directory; Dir spells its layout.
	OutDir string
	// Jobs is the worker pool of this invocation (<= 1 runs cells
	// sequentially). Per the worker-budget discipline, Jobs > 1 forces
	// every cell's inner worker count to 1.
	Jobs int
	// Resume reuses archived results: a cell whose runs/<key>.json loads
	// cleanly is a cache hit and is not recomputed. A torn or otherwise
	// unreadable archive is treated as a miss and rewritten (atomically).
	// Disabling Resume recomputes and rewrites every cell.
	Resume bool
	// Log, when non-nil, receives one progress line per completed cell.
	Log io.Writer
	// Fleet enables the cross-process coordination protocol: any number
	// of processes pointed at the same OutDir cooperatively execute the
	// campaign, each run claimed by exactly one live worker via
	// leases/<key>.json (see internal/fleet). Each process writes its own
	// invocation manifest under manifests/<owner>.json; whichever workers
	// observe quorum completion finalize the shared aggregate — the
	// bit-identity contract makes the concurrent finalize renames safe.
	Fleet bool
	// Owner identifies this worker in leases, the run index and the
	// manifests/ directory. Empty defaults to host-pid. Must not contain
	// path separators.
	Owner string
	// LeaseTTL is the fleet staleness horizon: a claimed run whose lease
	// has not been heartbeat-refreshed within the TTL is presumed crashed
	// and is reclaimed by another worker. <= 0 uses fleet.DefaultTTL.
	LeaseTTL time.Duration
	// TraceDir, when non-empty, writes one phase-trace JSONL file per
	// computed cell to TraceDir/<key>.jsonl: a header line with the
	// run's identity and phase-timing summary, then one span per line.
	// Only misses produce traces (hits spent no phase time). Telemetry
	// is observability only — trace output never enters archives,
	// aggregates or content keys, and the archive's Stamp()/ETag change
	// detector ignores it by construction.
	TraceDir string
	// Report, when non-nil, receives each streamed manifest entry after
	// its local manifest.log append — the hook `campaign run -report-to`
	// uses to POST progress to a remote serve instance's /ingest. Like
	// every telemetry path, reporting is provably inert: a failing (or
	// slow, or absent) reporter changes nothing in the archive, and
	// errors are logged, never propagated.
	Report func(Entry) error
}

// Manifest records one campaign invocation: every cell's key, cache
// disposition, timing and headline scores, plus the aggregate counts the
// smoke gates assert on. Timing fields vary between invocations; the
// byte-stable artifacts are campaign.csv and summary.txt.
//
// In fleet mode, the shared manifest.json is instead the campaign's
// cumulative record, rebuilt at finalize from the archive index: every
// run appears exactly once with the owner that executed it (Fleet is
// true, and per-entry Cache is "miss" for indexed executions). Each
// worker's own invocation view lives at manifests/<owner>.json.
type Manifest struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	Jobs     int    `json:"jobs"`
	// Fleet marks the cumulative fleet manifest; Owner names the worker
	// of a per-invocation manifest.
	Fleet  bool   `json:"fleet,omitempty"`
	Owner  string `json:"owner,omitempty"`
	Runs   int    `json:"runs"`
	Hits   int    `json:"hits"`
	Misses int    `json:"misses"`
	// Dups counts cells that shared another cell's key within this grid
	// and reused its result. They are tallied separately from Hits so
	// that a Resume=false invocation honestly reports zero archive reuse
	// while still not recomputing guaranteed-identical content.
	Dups        int     `json:"dups"`
	Failures    int     `json:"failures"`
	WallSeconds float64 `json:"wall_seconds"`
	Entries     []Entry `json:"entries"`
}

// Entry is one cell's record in the manifest.
type Entry struct {
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Config   string `json:"config"`
	Key      string `json:"key"`
	// Backend is the cell's measurement substrate ("sim", "wire").
	Backend string `json:"backend,omitempty"`
	// Status is "done" or "failed".
	Status string `json:"status"`
	// Cache is "hit" (loaded from the archive), "miss" (computed), or
	// "dup" (reused an identical-key cell of this same grid); empty for
	// failed cells.
	Cache string `json:"cache,omitempty"`
	// Owner is the worker that executed the cell; set on misses (and, in
	// the cumulative fleet manifest, taken from the archive index).
	Owner       string  `json:"owner,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// Q and SimSeconds are always present for done cells: zero is a
	// legitimate score (a partition collapsed to one cluster has Q = 0)
	// and must stay distinguishable from an absent one.
	Q          float64  `json:"q"`
	NMI        *float64 `json:"nmi,omitempty"`
	SimSeconds float64  `json:"sim_seconds"`
	Error      string   `json:"error,omitempty"`
}

// DecodeEntry is the one definition of a manifest line: it reports
// whether line decodes (json.Unmarshal) to an Entry with a key, and
// returns that Entry. A line in the form fleet.EncodeLine writes is read
// in one pass by readEntry.
func DecodeEntry(line []byte) (Entry, bool) {
	e, ok := readEntry(line)
	if !ok {
		e = Entry{}
		ok = json.Unmarshal(line, &e) == nil
	}
	return e, ok && e.Key != ""
}

// readEntry is DecodeEntry's fast path (see persist.Fields): it reports
// false for any line it does not read as json.Unmarshal would.
func readEntry(line []byte) (e Entry, ok bool) {
	f := persist.ReadFields(line)
	e.Index = f.Int("index")
	e.Scenario = f.String("scenario")
	e.Config = f.String("config")
	e.Key = f.String("key")
	e.Backend = f.String("backend")
	e.Status = f.String("status")
	e.Cache = f.String("cache")
	e.Owner = f.String("owner")
	e.WallSeconds = f.Float("wall_seconds")
	e.Q = f.Float("q")
	e.NMI = f.FloatPtr("nmi")
	e.SimSeconds = f.Float("sim_seconds")
	e.Error = f.String("error")
	return e, f.Done()
}

// Outcome is a completed invocation: the expanded grid, the manifest, the
// per-cell archived documents (in run order) and the aggregate table.
type Outcome struct {
	Runs     []Run
	Manifest *Manifest
	// Docs holds each cell's archived result document, nil for failed
	// cells.
	Docs []*persist.ResultDoc
	// Table is the aggregate NMI/Q/time table (also written as
	// campaign.csv and summary.txt under OutDir).
	Table *report.Table
	// ManifestPath is manifest.json in single-process mode and
	// manifests/<owner>.json in fleet mode. CSVPath and SummaryPath are
	// empty when a fleet invocation ended with failures (the aggregate is
	// finalized only at quorum completion).
	ManifestPath string
	CSVPath      string
	SummaryPath  string
}

// executor is one invocation's worker state: the expanded grid with its
// in-grid duplicates folded out, the per-cell results as they resolve,
// and — in fleet mode — the lease tracker coordinating with other
// processes over the shared OutDir.
type executor struct {
	spec    *Spec
	runs    []Run
	dupOf   []int // run index -> primary index, or -1 for primaries
	opt     ExecOptions
	dir     Dir            // opt.OutDir, as the layout
	jobs    int            // clamped job count, also the inner-worker force
	tracker *fleet.Tracker // nil in single-process mode

	mu sync.Mutex
	// queue holds the unresolved primary cells. Cells whose lease a peer
	// holds rotate back with a retry deadline; everything else leaves the
	// queue for good when it resolves, so a pass over the queue is O(open
	// cells), never O(grid).
	queue   []int
	busy    int         // cells currently assigned to goroutines of this process
	retryAt []time.Time // earliest next attempt for contended fleet cells
	entries []Entry
	docs    []*persist.ResultDoc
	logMu   sync.Mutex
}

// Execute expands the campaign and runs it as a fleet of one or more
// workers. Every invocation — single-process or fleet — is the same
// loop: scan for an unresolved cell, resolve it from the archive if
// possible, otherwise claim it, execute, publish the archive atomically,
// append the index ledger, and release the claim. In single-process mode
// the claim is a no-op (the in-process scheduler already serialises the
// grid), so the mode is literally a fleet of one in-process worker; in
// fleet mode the claim is a lease file and contended cells are retried
// until a peer's archive appears or its lease goes stale. Cells sharing
// a key within the grid are computed once (the duplicates are
// deterministic cache hits), and the aggregate table is rebuilt from the
// archives in run order. Failed cells are recorded in the manifest and
// reported as one error after every other cell has finished; a later
// invocation recomputes exactly the failed cells.
func Execute(s *Spec, opt ExecOptions) (*Outcome, error) {
	if opt.OutDir == "" {
		return nil, fmt.Errorf("campaign: ExecOptions.OutDir is required")
	}
	if opt.Owner == "" {
		opt.Owner = defaultOwner()
	}
	if strings.ContainsAny(opt.Owner, "/\\") || opt.Owner == "." || opt.Owner == ".." {
		return nil, fmt.Errorf("campaign: owner %q must be a plain file name", opt.Owner)
	}
	// Resume is how fleet workers resolve peer-executed runs (a contended
	// cell becomes a cache hit when the holder's archive appears).
	// Disabling it in fleet mode would make every worker recompute every
	// cell — N executions per run, serialized behind each other's leases —
	// silently breaking the exactly-once contract, so the combination is
	// rejected. To force recomputation, clear the archive instead.
	if opt.Fleet && !opt.Resume {
		return nil, fmt.Errorf("campaign: fleet mode requires Resume (remove the archive to force recomputation)")
	}
	runs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	// Cells can legitimately share a key — a dynamics axis over a
	// scenario with no timeline, a workers axis, scale values flooring
	// to the same payload — and shared key means guaranteed-identical
	// content. Compute each key once; the duplicates resolve from the
	// first cell's result as deterministic cache hits.
	primary := make(map[string]int, len(runs))
	dupOf := make([]int, len(runs))
	var unique []int
	for i, r := range runs {
		if p, ok := primary[r.Key]; ok {
			dupOf[i] = p
			continue
		}
		primary[r.Key] = i
		dupOf[i] = -1
		unique = append(unique, i)
	}
	jobs := opt.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(unique) {
		jobs = len(unique)
	}

	x := &executor{
		spec:    s,
		runs:    runs,
		dupOf:   dupOf,
		opt:     opt,
		dir:     Dir(opt.OutDir),
		jobs:    jobs,
		queue:   append([]int(nil), unique...),
		retryAt: make([]time.Time, len(runs)),
		entries: make([]Entry, len(runs)),
		docs:    make([]*persist.ResultDoc, len(runs)),
	}
	if opt.Fleet {
		tr, err := fleet.New(x.dir.Leases(), opt.Owner, opt.LeaseTTL)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		x.tracker = tr
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.worker()
		}()
	}
	wg.Wait()
	for i, p := range x.dupOf {
		if p < 0 {
			continue
		}
		x.docs[i] = x.docs[p]
		x.entries[i] = cellEntry(runs[i], "dup", x.docs[p], x.entries[p].Error)
		if x.docs[p] != nil {
			mCellsDup.Inc()
		}
	}

	man := x.manifest(x.entries)
	if opt.Fleet {
		man.Owner = opt.Owner
	}
	man.WallSeconds = time.Since(start).Seconds()

	out := &Outcome{
		Runs:     runs,
		Manifest: man,
		Docs:     x.docs,
		Table:    aggregate(s.Name, runs, x.docs),
	}
	if err := x.publish(out, man); err != nil {
		return nil, err
	}
	if man.Failures > 0 {
		return out, fmt.Errorf("campaign %s: %d of %d runs failed (see %s)", s.Name, man.Failures, man.Runs, out.ManifestPath)
	}
	return out, nil
}

// worker is the claim loop: pull the next actionable cell, try to
// resolve it, park contended cells for a later pass, exit when the whole
// grid is final.
func (x *executor) worker() {
	for {
		i, wait, ok := x.next()
		if !ok {
			return
		}
		if wait > 0 {
			time.Sleep(wait)
			continue
		}
		e, doc, resolved := x.attempt(x.runs[i])
		x.mu.Lock()
		x.busy--
		if resolved {
			x.entries[i] = e
			x.docs[i] = doc
		} else {
			x.retryAt[i] = time.Now().Add(x.poll())
			x.queue = append(x.queue, i)
		}
		x.mu.Unlock()
		if resolved {
			mCellSeconds.Observe(e.WallSeconds)
			x.logEntry(e)
			if x.opt.Report != nil {
				x.warn("report failed", x.opt.Report(e))
			}
		}
	}
}

// next assigns the caller the first queued cell whose retry deadline has
// passed; parked cells rotate to the back. When every open cell is
// either being worked in this process or parked until a deadline, it
// returns a sleep duration instead; when the grid is final it reports
// done.
func (x *executor) next() (idx int, wait time.Duration, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	defer func() {
		mQueueDepth.Set(float64(len(x.queue)))
		mBusyWorkers.Set(float64(x.busy))
	}()
	now := time.Now()
	var soonest time.Time
	for n := len(x.queue); n > 0; n-- {
		i := x.queue[0]
		x.queue = x.queue[1:]
		if x.retryAt[i].After(now) {
			if soonest.IsZero() || x.retryAt[i].Before(soonest) {
				soonest = x.retryAt[i]
			}
			x.queue = append(x.queue, i)
			continue
		}
		x.busy++
		return i, 0, true
	}
	if len(x.queue) == 0 && x.busy == 0 {
		return 0, 0, false
	}
	wait = x.poll()
	if !soonest.IsZero() {
		if d := soonest.Sub(now); d < wait {
			wait = d
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return 0, wait, true
}

// poll is the fleet back-off between passes over contended cells: short
// enough to notice a peer's archive promptly, long enough not to hammer
// the shared directory. In single-process mode there is no shared
// directory to spare — the only waiting is for this process's own last
// cells — so the floor applies.
func (x *executor) poll() time.Duration {
	var ttl time.Duration
	if x.tracker != nil {
		ttl = x.tracker.TTL()
	}
	p := ttl / 8
	if p < 10*time.Millisecond {
		p = 10 * time.Millisecond
	}
	if p > 500*time.Millisecond {
		p = 500 * time.Millisecond
	}
	return p
}

// attempt tries to resolve one primary cell: archive load first (the
// content address makes staleness impossible), then claim-and-execute.
// In fleet mode a cell whose lease a live peer holds resolves on a later
// pass — either the peer's archive appears (hit) or its lease goes stale
// and is reclaimed. Returns resolved=false only for such contended
// cells. A resolved cell is recorded (Record: ledger line for a fresh
// execution, then manifest.log) before the claim is released.
func (x *executor) attempt(run Run) (Entry, *persist.ResultDoc, bool) {
	start := time.Now()
	resolve := func(cache string, doc *persist.ResultDoc, err error) (Entry, *persist.ResultDoc, bool) {
		failure := ""
		if err != nil {
			failure, doc = err.Error(), nil
		}
		e := cellEntry(run, cache, doc, failure)
		e.WallSeconds = time.Since(start).Seconds()
		switch {
		case doc == nil:
			mCellFailures.Inc()
		case cache == "hit":
			mCellsHit.Inc()
		default:
			mCellsMiss.Inc()
			e.Owner = x.opt.Owner
		}
		// Recording is advisory (archives are the ground truth), so a
		// failure here must not fail a completed measurement.
		x.warn("manifest.log/index append failed", Record(x.dir, e))
		return e, doc, true
	}
	archive := x.dir.Archive(run.Key)
	if doc, ok := x.loadArchive(archive); ok {
		return resolve("hit", doc, nil)
	}
	if x.tracker != nil {
		claimed, _, err := x.tracker.Claim(run.Key)
		if err != nil {
			return resolve("", nil, err)
		}
		if !claimed {
			return Entry{}, nil, false
		}
		defer x.tracker.Release(run.Key)
		// The claim races the resume check: a peer may have published the
		// archive between our load attempt and winning the lease (it held
		// the lease then). Re-check before spending the measurement.
		if doc, ok := x.loadArchive(archive); ok {
			return resolve("hit", doc, nil)
		}
	}
	doc, err := x.computeCell(run)
	if err == nil {
		err = persist.SaveResult(archive, doc)
	}
	return resolve("miss", doc, err)
}

// cellEntry is the one place a manifest Entry is built from a grid cell.
// A done cell (doc non-nil) carries its cache disposition and the
// archived document's headline scores; a failed one (doc nil) carries
// the failure message and no disposition.
func cellEntry(run Run, cache string, doc *persist.ResultDoc, failure string) Entry {
	e := Entry{
		Index:    run.Index,
		Scenario: run.Scenario,
		Config:   run.Config(),
		Key:      run.Key,
		Backend:  run.Backend,
		Status:   "failed",
		Error:    failure,
	}
	if doc != nil {
		e.Status, e.Cache, e.Error = "done", cache, ""
		e.Q, e.NMI, e.SimSeconds = doc.Q, doc.NMI, doc.SimTime
	}
	return e
}

// warn logs a failure of something that must never fail a measurement:
// telemetry, reporting and the advisory ledger are all best-effort.
func (x *executor) warn(what string, err error) {
	if err == nil || x.opt.Log == nil {
		return
	}
	x.logMu.Lock()
	defer x.logMu.Unlock()
	fmt.Fprintf(x.opt.Log, "%s (non-fatal): %v\n", what, err)
}

// logEntry writes the per-cell progress line.
func (x *executor) logEntry(e Entry) {
	if x.opt.Log == nil {
		return
	}
	x.logMu.Lock()
	defer x.logMu.Unlock()
	status := e.Cache
	if e.Status == "failed" {
		status = "FAILED: " + e.Error
	}
	fmt.Fprintf(x.opt.Log, "run %d/%d %s %s: %s (%.2fs)\n",
		e.Index+1, len(x.runs), e.Scenario, e.Config, status, e.WallSeconds)
}

// manifest is a manifest document over this grid: the entries plus the
// aggregate counters derived from them.
func (x *executor) manifest(entries []Entry) *Manifest {
	man := &Manifest{
		Version:  1,
		Campaign: x.spec.Name,
		Jobs:     x.opt.Jobs,
		Runs:     len(x.runs),
		Entries:  entries,
	}
	for _, e := range entries {
		switch {
		case e.Status == "failed":
			man.Failures++
		case e.Cache == "hit":
			man.Hits++
		case e.Cache == "dup":
			man.Dups++
		default:
			man.Misses++
		}
	}
	return man
}

// publish writes the invocation's artifacts. Single-process mode keeps
// the original layout: manifest.json plus the aggregate, always. Fleet
// mode writes this worker's view to manifests/<owner>.json and — only at
// quorum completion (every cell of the grid archived) — finalizes the
// shared aggregate and the cumulative manifest.json; concurrent
// finalizers produce byte-identical aggregates, so the last rename wins
// harmlessly.
func (x *executor) publish(out *Outcome, man *Manifest) error {
	out.ManifestPath = x.dir.Manifest()
	if x.opt.Fleet {
		out.ManifestPath = x.dir.OwnerManifest(x.opt.Owner)
	}
	if err := persist.SaveJSON(out.ManifestPath, man); err != nil {
		return err
	}
	if x.opt.Fleet {
		if man.Failures > 0 {
			return nil // no quorum; a later invocation completes the grid
		}
		merged := x.cumulativeManifest()
		merged.WallSeconds = man.WallSeconds
		if err := persist.SaveJSON(x.dir.Manifest(), merged); err != nil {
			return err
		}
	}
	out.CSVPath, out.SummaryPath = x.dir.CSV(), x.dir.Summary()
	if err := persist.WriteAtomic(out.CSVPath, out.Table.WriteCSV); err != nil {
		return err
	}
	return persist.WriteAtomic(out.SummaryPath, out.Table.Write)
}

// cumulativeManifest is the fleet's shared manifest.json: every run of
// the grid exactly once, attributed to the owner that executed it per the
// archive index (a run the index does not attribute is an archived "hit").
// An unreadable index costs the manifest its attribution, not the fleet
// its aggregate, so the failure is logged and finalization carries on.
func (x *executor) cumulativeManifest() *Manifest {
	first, _, err := fleet.Executions(x.dir.Index())
	x.warn("index read failed, manifest.json lacks attribution", err)
	completed := make(map[string]fleet.IndexEntry, len(first))
	for _, rec := range first {
		completed[rec.Key] = rec
	}
	entries := make([]Entry, len(x.runs))
	for i, run := range x.runs {
		rec, executed := completed[run.Key]
		switch {
		case x.dupOf[i] >= 0:
			entries[i] = cellEntry(run, "dup", x.docs[i], "")
		case executed && rec.Owner != "":
			entries[i] = cellEntry(run, "miss", x.docs[i], "")
			entries[i].Owner = rec.Owner
			entries[i].WallSeconds = rec.WallSeconds
		default:
			entries[i] = cellEntry(run, "hit", x.docs[i], "")
		}
	}
	man := x.manifest(entries)
	man.Fleet = true
	return man
}

// loadArchive is the cache probe: an archive that loads and decodes
// cleanly is the cell's result (content addressing makes staleness
// impossible — any input change changes the key); anything else — absent,
// torn, or unreadable — is a miss, and so is everything when Resume is
// off.
func (x *executor) loadArchive(path string) (*persist.ResultDoc, bool) {
	if !x.opt.Resume {
		return nil, false
	}
	doc, err := persist.LoadResult(path)
	if err != nil {
		return nil, false
	}
	if _, err := doc.Partition(); err != nil {
		return nil, false
	}
	return doc, true
}

// computeCell runs one cell's measurement under a private tracer and
// encodes its archive document; with TraceDir set, the phase trace is
// published next to the archive (best-effort — a trace write failure is
// logged, never fails the measurement).
func (x *executor) computeCell(run Run) (*persist.ResultDoc, error) {
	tr := telemetry.NewTracer()
	sp := tr.Start("compile")
	d, err := run.Spec.Compile()
	sp.End()
	if err != nil {
		return nil, err
	}
	opts := run.Options(x.jobs)
	opts.Trace = tr
	res, err := core.RunDataset(d, opts)
	if err != nil {
		return nil, err
	}
	var series []float64
	for _, rec := range res.Iterations {
		if rec.Clustered {
			series = append(series, rec.NMI)
		}
	}
	if x.opt.TraceDir != "" {
		x.warn("trace write failed", writeTrace(x.opt.TraceDir, run, tr, res.Phases))
	}
	return persist.EncodeResult(run.Spec.Name, res.Partition, res.Q, res.NMI, res.TotalMeasurementTime, series), nil
}

// defaultOwner identifies this process when no owner was configured.
func defaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// aggregate builds the campaign's NMI/Q/time table from the archived
// documents in run order. Every cell value is derived from the archive
// (never from in-memory state) and floats render shortest-round-trip, so
// the table — and the CSV and summary files written from it — is
// byte-identical across invocations, job counts, cache states and fleet
// layouts.
func aggregate(name string, runs []Run, docs []*persist.ResultDoc) *report.Table {
	t := &report.Table{
		Title:   "Campaign " + name,
		Header:  []string{"run", "scenario"},
		Caption: "one row per grid cell, in expansion order; key is the content address of the archived result",
	}
	for _, a := range ConfigAxes {
		t.Header = append(t.Header, a.Name)
	}
	t.Header = append(t.Header, "clusters", "q", "nmi", "sim_seconds", "key")
	for i, run := range runs {
		row := []string{strconv.Itoa(run.Index), run.Scenario}
		for _, a := range ConfigAxes {
			row = append(row, a.text(run))
		}
		clusters, q, nmiS, simS := "", "", "", ""
		if doc := docs[i]; doc != nil {
			if p, err := doc.Partition(); err == nil {
				clusters = strconv.Itoa(p.NumClusters())
			}
			q = formatFloat(doc.Q)
			if doc.NMI != nil {
				nmiS = formatFloat(*doc.NMI)
			}
			simS = formatFloat(doc.SimTime)
		}
		t.Rows = append(t.Rows, append(row, clusters, q, nmiS, simS, run.Key[:12]))
	}
	return t
}

// formatFloat renders a float shortest-round-trip — exact and
// byte-stable, unlike a fixed-precision format.
func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
