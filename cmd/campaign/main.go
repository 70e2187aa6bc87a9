// Command campaign manages declarative sweep campaigns end to end:
// executing grids against a content-addressed result archive, and
// querying that archive as a served product.
//
// Usage:
//
//	campaign run    -spec grid.json -out runs/grid [-jobs N] [-resume] [-fleet -owner X -lease-ttl D] [-trace DIR] [-metrics-addr host:port] [-report-to URL]
//	campaign run    -spec grid.json -dry-run [-out runs/grid]   # audit the grid (keys + hit/miss)
//	campaign status -out runs/grid [-json] [-v]                 # live fleet progress (+ phase breakdown)
//	campaign serve  -out runs/grid [-addr host:port] [-pprof] [-ingest]  # HTTP query service + live dashboard
//	campaign diff   -out runs/grid -base runs/prev              # regression report (exit 1 on regressions)
//	campaign gc     -out runs/grid [-spec grid.json] [-max-age D] [-max-runs N] [-dry-run]
//
// run executes (or resumes) the grid: runs whose content key is already
// archived load instead of recomputing, any number of -fleet processes
// sharing -out partition the grid via leases, and the aggregate is
// byte-identical however the work was scheduled. With -dry-run it
// prints each expanded cell's content key and — when -out is given —
// its hit/miss status against that archive, so a resume can be audited
// before spending compute.
//
// run is also where observability switches on: -trace DIR writes one
// phase-trace JSONL per computed cell (use DIR = <out>/traces so
// `campaign status` finds them), -metrics-addr starts a live /metrics +
// /debug/pprof/ listener for the duration of the run, and -report-to
// URL POSTs each finished cell's manifest line to a remote `campaign
// serve -ingest` instance, so a dashboard on another machine follows
// this worker with no shared filesystem. All three are inert to the
// science: a dead hub, like a failed trace write, is logged and
// ignored — archives stay byte-identical with reporting on or off.
//
// status fuses the runs/index.json ledger, leases/ and per-owner
// manifests into live progress: how much of the grid is archived, who
// executed what, what is in flight, which leases went stale. With -v it
// adds per-backend and per-owner mean run durations from the ledger,
// and when <out>/traces holds phase traces it prints the aggregated
// phase breakdown — where the wall-clock actually went.
//
// serve exposes the same read path over HTTP (GET /status, /runs,
// /runs/{key}, /marginals/{axis}) with ETag/If-None-Match
// keyed on the ledger, so dashboards and CI can poll cheaply while a
// fleet is still writing. "/marginals/intensity" is the dynamics axis.
// On top of the JSON views it serves the live observatory: GET
// /plots/{axis}.svg and /plots/phases.svg render the marginal curves
// and trace phase breakdown as deterministic SVG (same ETag
// discipline), GET /events streams typed archive changes as
// Server-Sent Events (replayable via Last-Event-ID), and GET
// /dashboard is a self-contained HTML page subscribed to all of it.
// GET /metrics exposes process telemetry in Prometheus text format
// (never cached), -pprof additionally mounts Go's profiling handlers
// under /debug/pprof/, and -ingest mounts POST /ingest so remote
// `campaign run -report-to` workers can stream their progress into
// this archive.
//
// diff compares two archives by content key: shared keys must hold
// byte-identical documents (the bit-identity contract), so any
// divergence is a regression and the command exits non-zero.
//
// gc bounds a long-lived archive: -max-age and -max-runs evict old
// runs (never leased ones), and with -spec the current expansion's keys
// are protected while stale-keyVersion archives are swept. The ledger
// is compacted to match.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/archive"
	"repro/internal/archive/serve"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "status":
		err = cmdStatus(args)
	case "serve":
		err = cmdServe(args)
	case "diff":
		err = cmdDiff(args)
	case "gc":
		err = cmdGC(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return
	default:
		err = fmt.Errorf("unknown subcommand %q (have: run, status, serve, diff, gc)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprintln(w, `campaign manages sweep campaigns against a content-addressed archive.

  campaign run    -spec grid.json -out DIR [-jobs N] [-fleet -owner X] [-report-to URL]
  campaign run    -spec grid.json -dry-run [-out DIR]
  campaign status -out DIR [-json]
  campaign serve  -out DIR [-addr host:port] [-ingest]
  campaign diff   -out DIR -base DIR
  campaign gc     -out DIR [-spec grid.json] [-max-age D] [-max-runs N] [-dry-run]

Run 'campaign <subcommand> -h' for that subcommand's flags.`)
}

// The shared flag vocabulary: every subcommand that takes one of these
// flags registers it here, so -out and -spec mean the same thing (and
// document themselves the same way) across the whole surface.
func outFlag(fs *flag.FlagSet) *string {
	return fs.String("out", "", "campaign archive directory (runs/, leases/, manifests/, manifest.log live under it)")
}

func specFlag(fs *flag.FlagSet, usage string) *string {
	return fs.String("spec", "", usage)
}

// openStore opens the archive read path rooted at -out.
func openStore(out string) (*repro.Archive, error) {
	if out == "" {
		return nil, fmt.Errorf("-out is required")
	}
	return repro.OpenArchive(out)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	spec := specFlag(fs, "campaign spec JSON file (required)")
	out := outFlag(fs)
	jobs := fs.Int("jobs", 1, "campaign-level worker pool; >1 forces each run's inner workers to 1 (fan-out at one level only)")
	resume := fs.Bool("resume", true, "reuse archived results; false recomputes and rewrites every run (rejected with -fleet: clear the archive instead)")
	dryRun := fs.Bool("dry-run", false, "print the expanded run grid (with hit/miss against -out, when given) and exit without measuring")
	fleetRun := fs.Bool("fleet", false, "join the fleet sharing -out: claim runs via lease files and cooperate with other -fleet processes")
	owner := fs.String("owner", "", "fleet worker id for leases and manifests/ (default host-pid)")
	leaseTTL := fs.Duration("lease-ttl", time.Minute, "fleet lease staleness horizon; a worker silent this long is presumed crashed and its runs reclaimed")
	traceDir := fs.String("trace", "", "write one phase-trace JSONL per computed cell into this directory (use <out>/traces so `campaign status` aggregates them)")
	metricsAddr := fs.String("metrics-addr", "", "serve live /metrics and /debug/pprof/ on this address for the duration of the run")
	reportTo := fs.String("report-to", "", "POST each finished cell's manifest line to this `campaign serve -ingest` URL (progress crosses machines; failures are non-fatal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("run: -spec is required")
	}
	c, err := repro.LoadCampaign(*spec)
	if err != nil {
		return err
	}
	if *dryRun {
		return printGrid(c, *out)
	}
	if *out == "" {
		return fmt.Errorf("run: -out is required (or use -dry-run)")
	}
	fmt.Printf("campaign %s: %d scenarios\n", c.Name, len(c.Scenarios))
	if *metricsAddr != "" {
		if err := serveMetrics(*metricsAddr); err != nil {
			return err
		}
	}
	opts := repro.CampaignOptions{
		OutDir:   *out,
		Jobs:     *jobs,
		Resume:   *resume,
		Log:      os.Stdout,
		Fleet:    *fleetRun,
		Owner:    *owner,
		LeaseTTL: *leaseTTL,
		TraceDir: *traceDir,
	}
	if *reportTo != "" {
		opts.Report = httpReporter(*reportTo)
		fmt.Printf("reporting progress to %s\n", *reportTo)
	}
	var res *repro.CampaignOutcome
	if *fleetRun {
		res, err = repro.JoinCampaign(c, opts)
	} else {
		res, err = repro.RunCampaign(c, opts)
	}
	if err != nil {
		return err
	}
	m := res.Manifest
	if *fleetRun {
		fmt.Printf("\nfleet worker %s: ", m.Owner)
	} else {
		fmt.Printf("\n")
	}
	fmt.Printf("%d runs: %d cache hits, %d computed, %d deduplicated, %d failed (%.2fs wall)\n\n",
		m.Runs, m.Hits, m.Misses, m.Dups, m.Failures, m.WallSeconds)
	if err := res.Table.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("manifest: %s\naggregate: %s\n", res.ManifestPath, res.CSVPath)
	return nil
}

// httpReporter builds the run's progress hook: POST one manifest line
// per finished cell to a remote `campaign serve -ingest` instance, so a
// dashboard on another machine follows this worker with no shared
// filesystem. Reporting is observability, not record-keeping — the
// short timeout and the executor's non-fatal handling mean a dead hub
// costs log noise, never a cell.
func httpReporter(url string) func(repro.CampaignEntry) error {
	if !strings.HasSuffix(url, "/ingest") {
		url = strings.TrimSuffix(url, "/") + "/ingest"
	}
	client := &http.Client{Timeout: 5 * time.Second}
	return func(e repro.CampaignEntry) error {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(append(data, '\n')))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("report: %s returned %s", url, resp.Status)
		}
		return nil
	}
}

// serveMetrics starts the debug listener a long `campaign run` can be
// watched through: live /metrics plus Go's profiling handlers. It is a
// diagnostic sidecar for this one process, so pprof is unconditionally
// mounted (unlike `campaign serve`, where it is opt-in) and the
// listener dies with the run.
func serveMetrics(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", telemetry.Default().Handler())
	serve.MountPprof(mux)
	fmt.Printf("metrics on http://%s/metrics (pprof: /debug/pprof/)\n", l.Addr())
	go func() {
		_ = http.Serve(l, mux) // dies with the process
	}()
	return nil
}

// printGrid lists the expanded run grid without executing it — the
// sanity check before committing hours of compute to a sweep. With an
// archive directory it additionally probes each cell's content key
// against the archive, so an operator can audit exactly what a resume
// would reuse and what it would compute. One advanced Snapshot answers
// every cell's probe, so the ledger is folded once per listing.
func printGrid(c *repro.Campaign, out string) error {
	runs, err := c.Expand()
	if err != nil {
		return err
	}
	var archived *archive.Snapshot // nil: no archive yet, every cell is a miss
	if out != "" {
		store, err := repro.OpenArchive(out)
		switch {
		case err == nil:
			archived = store.Snapshot()
			if err := archived.Advance(); err != nil {
				return err
			}
		case !os.IsNotExist(err):
			return err
		}
	}
	fmt.Printf("campaign %s expands to %d runs:\n", c.Name, len(runs))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "RUN\tSCENARIO\tBACKEND\tCONFIG\tKEY"
	if out != "" {
		header += "\tCACHE"
	}
	fmt.Fprintln(tw, header)
	hits := 0
	for _, r := range runs {
		line := fmt.Sprintf("%d\t%s\t%s\t%s\t%s", r.Index, r.Scenario, r.Backend, r.Config(), r.Key)
		if out != "" {
			cache := "miss"
			if archived != nil {
				if d, err := archived.Get(r.Key); err == nil && d.Doc != nil {
					cache = "hit"
					hits++
				}
			}
			line += "\t" + cache
		}
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("%d of %d runs archived in %s (%d to compute)\n", hits, len(runs), out, len(runs)-hits)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	out := outFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw status document instead of the summary")
	verbose := fs.Bool("v", false, "add per-backend and per-owner mean run durations from the ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*out)
	if err != nil {
		return err
	}
	st, err := store.Status()
	if err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(os.Stdout, st)
	}
	name := st.Campaign
	if name == "" {
		name = "(not finalized)"
	}
	fmt.Printf("archive %s\ncampaign: %s\n", st.Dir, name)
	if st.GridRuns > 0 {
		fmt.Printf("grid: %d runs, %d archived\n", st.GridRuns, st.Archived)
	} else {
		fmt.Printf("archived: %d runs\n", st.Archived)
	}
	fmt.Printf("executed: %d (ledger, exactly-once; %d ledger lines)\n", st.Executed, st.LedgerLines)
	if len(st.Backends) > 0 {
		names := make([]string, 0, len(st.Backends))
		for b := range st.Backends {
			names = append(names, b)
		}
		sort.Strings(names)
		if *verbose {
			tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "BACKEND\tEXECUTED\tWALL\tMEAN")
			for _, b := range names {
				fmt.Fprintf(tw, "%s\t%d\t%.2fs\t%.3fs\n", b, st.Backends[b],
					st.BackendSeconds[b], st.BackendSeconds[b]/float64(st.Backends[b]))
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		} else {
			parts := make([]string, len(names))
			for i, b := range names {
				parts[i] = fmt.Sprintf("%s %d", b, st.Backends[b])
			}
			fmt.Printf("backends: %s\n", strings.Join(parts, ", "))
		}
	}
	fmt.Printf("in flight: %d leases (%d stale)\nfinalized: %v\n", st.InFlight, st.StaleLeases, st.Finalized)
	if len(st.Owners) > 0 {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		header := "OWNER\tEXECUTED\tWALL\tMANIFEST"
		if *verbose {
			header = "OWNER\tEXECUTED\tWALL\tMEAN\tMANIFEST"
		}
		fmt.Fprintln(tw, header)
		for _, o := range st.Owners {
			man := "-"
			if o.Manifest != nil {
				man = fmt.Sprintf("%d runs: %d hit / %d miss / %d dup / %d failed",
					o.Manifest.Runs, o.Manifest.Hits, o.Manifest.Misses, o.Manifest.Dups, o.Manifest.Failures)
			}
			if *verbose {
				mean := "-"
				if o.Executed > 0 {
					mean = fmt.Sprintf("%.3fs", o.WallSeconds/float64(o.Executed))
				}
				fmt.Fprintf(tw, "%s\t%d\t%.2fs\t%s\t%s\n", o.Owner, o.Executed, o.WallSeconds, mean, man)
			} else {
				fmt.Fprintf(tw, "%s\t%d\t%.2fs\t%s\n", o.Owner, o.Executed, o.WallSeconds, man)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	for _, l := range st.Leases {
		state := "live"
		if l.Stale {
			state = "STALE"
		}
		fmt.Printf("lease %s… held by %s (epoch %d, %s)\n", l.Key[:12], l.Owner, l.Epoch, state)
	}
	return printPhaseBreakdown(store)
}

// printPhaseBreakdown aggregates <out>/traces into the per-phase time
// table — where a campaign's wall-clock actually went. Silent when no
// traces were recorded (the common case: -trace is opt-in).
func printPhaseBreakdown(store *repro.Archive) error {
	tr, err := store.Traces()
	if err != nil {
		return err
	}
	if tr.Files == 0 {
		return nil
	}
	var total float64
	for _, p := range tr.Phases {
		total += p.Seconds
	}
	fmt.Printf("\nphase breakdown (%d traced runs):\n", tr.Files)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE\tSPANS\tSECONDS\tSHARE")
	for _, p := range tr.Phases {
		share := 0.0
		if total > 0 {
			share = 100 * p.Seconds / total
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3fs\t%.1f%%\n", p.Phase, p.Spans, p.Seconds, share)
	}
	return tw.Flush()
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("campaign serve", flag.ExitOnError)
	out := outFlag(fs)
	addr := fs.String("addr", "127.0.0.1:8177", "listen address (host:port; :0 picks a free port)")
	withPprof := fs.Bool("pprof", false, "mount Go's profiling handlers under /debug/pprof/ (off by default: they expose process internals)")
	withIngest := fs.Bool("ingest", false, "mount POST /ingest, accepting manifest lines from remote `campaign run -report-to` workers (off by default: it appends to the archive)")
	eventsInterval := fs.Duration("events-interval", time.Second, "archive poll cadence behind the /events stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*out)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	endpoints := "/dashboard /events /status /runs /runs/{key} /marginals/{axis} /plots/{axis}.svg /plots/phases.svg /metrics"
	if *withIngest {
		endpoints += " POST:/ingest"
	}
	if *withPprof {
		endpoints += " /debug/pprof/"
	}
	fmt.Printf("serving %s on http://%s (endpoints: %s)\n", store.Dir(), l.Addr(), endpoints)
	fmt.Printf("dashboard: http://%s/dashboard\n", l.Addr())
	return http.Serve(l, serve.NewHandler(store, serve.Options{
		Pprof:         *withPprof,
		Ingest:        *withIngest,
		EventInterval: *eventsInterval,
	}))
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("campaign diff", flag.ExitOnError)
	out := outFlag(fs)
	base := fs.String("base", "", "baseline archive directory to compare against (required)")
	asJSON := fs.Bool("json", false, "print the raw diff document instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" {
		return fmt.Errorf("diff: -base is required")
	}
	store, err := openStore(*out)
	if err != nil {
		return err
	}
	rep, err := store.Diff(*base)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("diff %s vs base %s\n", rep.Dir, rep.Base)
		fmt.Printf("common: %d  only here: %d  only base: %d  unreadable: %d\n",
			rep.Common, rep.OnlyHere, rep.OnlyBase, rep.Unreadable)
		for _, r := range rep.Regressions {
			fmt.Printf("REGRESSION %s…: %s here=%s base=%s\n", r.Key[:12], r.Field, r.Here, r.Base)
		}
		fmt.Printf("regressions: %d\n", rep.RegressionCount)
	}
	if rep.RegressionCount > 0 {
		return fmt.Errorf("%d shared keys diverged — the pipeline's behaviour changed between the archives", rep.RegressionCount)
	}
	return nil
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("campaign gc", flag.ExitOnError)
	out := outFlag(fs)
	spec := specFlag(fs, "campaign spec whose current expansion is protected; archives outside it are swept as stale-keyVersion")
	maxAge := fs.Duration("max-age", 0, "evict archives older than this (0 = no age limit)")
	maxRuns := fs.Int("max-runs", 0, "cap the archive count, evicting oldest first (0 = no cap)")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*out)
	if err != nil {
		return err
	}
	opt := archive.GCOptions{MaxAge: *maxAge, MaxRuns: *maxRuns, DryRun: *dryRun}
	if *spec != "" {
		c, err := repro.LoadCampaign(*spec)
		if err != nil {
			return err
		}
		runs, err := c.Expand()
		if err != nil {
			return err
		}
		opt.Current = make(map[string]bool, len(runs))
		for _, r := range runs {
			opt.Current[r.Key] = true
		}
	}
	rep, err := store.GC(opt)
	if err != nil {
		return err
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	fmt.Printf("gc %s: scanned %d archives, %s %d (%d stale-version, %d expired, %d evicted), kept %d (%d protected), swept %d strays\n",
		store.Dir(), rep.Scanned, verb, rep.Removed,
		len(rep.StaleVersion), len(rep.Expired), len(rep.Evicted), rep.Kept, rep.Protected, rep.Strays)
	if rep.LedgerCompacted {
		fmt.Println("ledger compacted")
	}
	keys := append(append(append([]string(nil), rep.StaleVersion...), rep.Expired...), rep.Evicted...)
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s %s\n", verb, k)
	}
	return nil
}

func writeJSON(w *os.File, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
