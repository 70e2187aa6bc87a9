// Package serve exposes a campaign archive's read path over HTTP — the
// query service dashboards, CI regression gates and fleet operators
// poll while (and after) a fleet writes the directory.
//
// Endpoints (GET, JSON unless noted):
//
//	/            endpoint index
//	/status      live fleet progress (ledger + leases + manifests)
//	/runs        run listing (ledger ∪ directory scan, exactly once)
//	/runs/{key}  one run's ledger record and archived document
//	/marginals/{axis}  per-axis NMI/Q/timing curve ("dynamics",
//	             "iterations", ...; "intensity" aliases "dynamics")
//	/plots/{axis}.svg  the same marginal curve rendered as an SVG chart
//	/plots/phases.svg  aggregated phase breakdown from traces/, as SVG
//	/dashboard   live HTML dashboard (subscribes to /events)
//	/events      archive change feed, Server-Sent Events (no ETag:
//	             a stream has no representation to cache; reconnect
//	             with Last-Event-ID to replay missed events; 503 while
//	             the stream has its maximum of subscribers)
//	/metrics     process telemetry, Prometheus text format (no ETag:
//	             metrics change continuously and are never cached)
//	/debug/pprof/*     Go profiling handlers, when Options.Pprof is set
//	POST /ingest       append remote manifest lines, when Options.Ingest
//	             is set — the cross-machine write path for
//	             `campaign run -report-to`
//
// Every JSON and SVG response carries an ETag derived from the
// archive's Stamp() — the sizes and mtimes of the append-only ledger
// and manifests, which change exactly when archive state changes. A
// poller that replays the ETag via If-None-Match gets 304 Not Modified
// until a new completion lands, and the 304 is decided from the stamp
// before any view is built (see view), so heavy read traffic against an
// idle archive costs a handful of stat calls per poll, no file reads,
// and responses are byte-stable between state changes. A 200 is built
// from the handler's one archive.Snapshot, advanced first by reading
// only the bytes appended since the previous 200, and listing runs/
// again only when the directory or the ledger or log moved: O(what
// changed), not O(archive), for about 1 MB held per 10^3 runs. /runs
// keeps the body it last encoded and serves it again while the listing
// is equal. What a 200 still reads on every request is what the Snapshot
// does not hold: the leases (/status), one result document
// (/runs/{key}), and what /plots/phases.svg reads through the Store.
// The consequence of the ETag design: an ETag names archive state, not a
// URL, so a request replaying the current tag is answered 304 without its
// path arguments being examined. Lease heartbeats deliberately do not
// enter the ETag: they refresh every TTL/3 without changing any completed
// result. Trace files under traces/ are equally excluded, so
// /plots/phases.svg keys its ETag on Stamp() plus the separate
// TracesStamp().
//
// Error classification is the archive package's job, not a handler
// string-match: archive.ErrBadKey maps to 400 (malformed request),
// archive.ErrUnknownAxis and fs-level not-exist map to 404 (no such
// resource), anything else is a 500.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Options configures the optional faces of the service.
type Options struct {
	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/. Off by default: profiling endpoints expose process
	// internals and cost real CPU when scraped, so they are opt-in.
	Pprof bool
	// Ingest mounts POST /ingest, accepting manifest lines from remote
	// `campaign run -report-to` writers. Off by default: it turns a
	// read-only service into one that appends to its archive, so the
	// operator opts in explicitly.
	Ingest bool
	// EventInterval is the /events watcher's poll cadence (default 1s).
	EventInterval time.Duration
}

// sseHeartbeat is the SSE comment-line cadence that keeps idle /events
// connections alive through proxies. A variable only so the package's
// tests can observe a heartbeat without waiting fifteen seconds.
var sseHeartbeat = 15 * time.Second

// Handler returns the HTTP handler serving the store's read path with
// default options (metrics on, pprof and ingest off).
func Handler(st *archive.Store) http.Handler {
	return NewHandler(st, Options{})
}

// NewHandler returns the HTTP handler serving the store's read path.
func NewHandler(st *archive.Store, opt Options) http.Handler {
	stream := events.NewStream(events.NewWatcher(st), opt.EventInterval)
	// What a response depends on: every view but two is a function of the
	// archive's Stamp() alone.
	archiveStamp := func(*http.Request) string { return st.Stamp() }
	// The handler's one Snapshot. A 200 advances it (reading what was
	// appended since the last one) and builds its view under the lock; a
	// view aliases nothing of the Snapshot, so it is encoded outside it.
	var mu sync.Mutex
	snap := st.Snapshot()
	current := func(build func(*archive.Snapshot) (any, error)) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		if err := snap.Advance(); err != nil {
			return nil, err
		}
		return build(snap)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", counted("index", view(archiveStamp, func(*http.Request) (any, error) {
		endpoints := []string{
			"/status", "/runs", "/runs/{key}", "/marginals/{axis}",
			"/plots/{axis}.svg", "/plots/phases.svg",
			"/dashboard", "/events", "/metrics",
		}
		if opt.Ingest {
			endpoints = append(endpoints, "POST /ingest")
		}
		if opt.Pprof {
			endpoints = append(endpoints, "/debug/pprof/")
		}
		return map[string]any{
			"archive":   st.Dir(),
			"endpoints": endpoints,
			"axes":      archive.MarginalAxes(),
		}, nil
	})))
	mux.HandleFunc("GET /status", counted("status", view(archiveStamp, func(*http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) { return s.Status() })
	})))
	// The last listing /runs encoded and its body, under mu: an unchanged
	// listing is served the same bytes without encoding it again.
	var lastRuns []archive.RunInfo
	var lastBody json.RawMessage
	mux.HandleFunc("GET /runs", counted("runs", view(archiveStamp, func(*http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) {
			runs, err := s.Runs()
			if err != nil {
				return nil, err
			}
			if lastBody == nil || !slices.Equal(runs, lastRuns) {
				body, err := encodeJSON(map[string]any{"runs": len(runs), "entries": runs})
				if err != nil {
					return nil, err
				}
				// MarshalIndent's buffer has room for twice the compact
				// document; what is kept is the body alone.
				lastRuns, lastBody = runs, bytes.Clone(body)
			}
			return lastBody, nil
		})
	})))
	mux.HandleFunc("GET /runs/{key}", counted("run", view(archiveStamp, func(r *http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) { return s.Get(r.PathValue("key")) })
	})))
	mux.HandleFunc("GET /marginals/{axis}", counted("marginals", view(archiveStamp, func(r *http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) { return s.Marginals(r.PathValue("axis")) })
	})))
	mux.HandleFunc("GET /plots/{name}", counted("plots", view(func(r *http.Request) string {
		if r.PathValue("name") == "phases.svg" {
			// Traces sit outside Stamp() by design, so the phase plot
			// needs both change detectors in its ETag.
			return st.Stamp() + "|" + st.TracesStamp()
		}
		return st.Stamp()
	}, func(r *http.Request) (any, error) {
		name, ok := strings.CutSuffix(r.PathValue("name"), ".svg")
		if !ok {
			return nil, fmt.Errorf("plots: want /plots/{axis}.svg or /plots/phases.svg: %w", os.ErrNotExist)
		}
		if name == "phases" {
			sum, err := st.Traces()
			if err != nil {
				return nil, err
			}
			return phasesSVG(sum), nil
		}
		return current(func(s *archive.Snapshot) (any, error) {
			m, err := s.Marginals(name)
			if err != nil {
				return nil, err
			}
			return marginalSVG(m), nil
		})
	})))
	mux.HandleFunc("GET /events", counted("events", func(w http.ResponseWriter, r *http.Request) {
		serveSSE(w, r, stream)
	}))
	mux.HandleFunc("GET /dashboard", counted("dashboard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache")
		io.WriteString(w, dashboardHTML)
	}))
	if opt.Ingest {
		mux.HandleFunc("POST /ingest", counted("ingest", func(w http.ResponseWriter, r *http.Request) {
			serveIngest(w, r, st)
		}))
	}
	// /metrics is deliberately outside the ETag/304 discipline: counters
	// move with every scrape-worthy event, and Prometheus clients expect
	// a fresh body each poll. It exposes the process-wide registry, where
	// every instrumented layer — core, substrate, wire, fleet, campaign,
	// and counted below — registers.
	mux.Handle("GET /metrics", counted("metrics", telemetry.Default().Handler().ServeHTTP))
	if opt.Pprof {
		MountPprof(mux)
	}
	return mux
}

// MountPprof mounts net/http/pprof's profiling handlers under
// /debug/pprof/ — for this service when Options.Pprof is set, and for
// `campaign run -metrics-addr`'s debug listener.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// serveSSE streams archive events as Server-Sent Events. A reconnecting
// client's Last-Event-ID replays what the stream's ring still holds,
// then live events follow; heartbeat comment lines keep idle
// connections alive. The response never ends on its own — the client
// hangs up, or the subscriber is dropped for falling behind (and the
// client's automatic reconnect resumes it). A stream at its subscriber
// cap answers 503 with Retry-After instead.
func serveSSE(w http.ResponseWriter, r *http.Request, stream *events.Stream) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "events: streaming unsupported", http.StatusInternalServerError)
		return
	}
	var lastID int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		lastID, _ = strconv.ParseInt(v, 10, 64)
	}
	ch, err := stream.Subscribe(lastID)
	if err != nil {
		// Full (events.ErrFull): Retry-After says when a slot may be free.
		w.Header().Set("Retry-After", "2")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer stream.Unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, "retry: 2000\n\n")
	fl.Flush()

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case e, ok := <-ch:
			if !ok {
				return // dropped or stream closed; client reconnects
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Kind, data)
			fl.Flush()
		}
	}
}

// ingestMaxBody bounds one POST /ingest body: manifest lines are a few
// hundred bytes each, so 1 MiB is thousands of cells per request. A
// larger body is answered 413, never silently cut: the lines before the
// cap have been appended by then, and a client that re-posts them in
// smaller requests is deduplicated by the read path.
const ingestMaxBody = 1 << 20

var mIngested = telemetry.Default().Counter(
	"repro_http_ingested_lines_total", "Manifest lines accepted via POST /ingest.")

// serveIngest appends posted manifest lines to the serving archive: one
// JSON cell entry per line, the same shape `campaign run` streams to
// manifest.log. Lines are re-marshalled before the append (a remote
// writer cannot inject raw bytes into the archive), malformed lines and
// lines the read path would skip as oversized are not accepted, and
// each accepted entry goes through campaign.Record — the writer the
// executor itself uses — so fresh executions get their ledger line and
// /status per-owner counts on the hub match `campaign status` on the
// writer.
func serveIngest(w http.ResponseWriter, r *http.Request, st *archive.Store) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, ingestMaxBody))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	accepted, seen := 0, 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		seen++
		var e campaign.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Key == "" || !fleet.IsArchiveKey(e.Key) {
			continue // torn or foreign line: skip, exactly like a reader would
		}
		if e.Status != "done" && e.Status != "failed" {
			continue
		}
		// Re-marshalling can grow a line (json.Marshal writes <, > and & as
		// six bytes each); one the read path would skip is not archived.
		if data, err := json.Marshal(e); err != nil || len(data) > fleet.MaxLine {
			continue
		}
		if err := campaign.Record(campaign.Dir(st.Dir()), e); err != nil {
			fail(w, err)
			return
		}
		accepted++
		mIngested.Inc()
	}
	if err := sc.Err(); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "ingest: "+err.Error(), code)
		return
	}
	if seen > 0 && accepted == 0 {
		http.Error(w, "ingest: no valid manifest lines in body", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n  \"ingested\": %d\n}\n", accepted)
}

// marginalSVG renders one axis's marginal curve: mean Q (and mean NMI
// where ground truth exists) against the axis coordinate. Numeric axes
// plot on their real scale; categorical axes (scenario names) plot by
// index with tick labels.
func marginalSVG(m *archive.Marginal) []byte {
	p := &report.SVGPlot{
		Title:  "marginal: " + m.Axis,
		XLabel: m.Axis,
		YLabel: "score",
	}
	numeric := len(m.Points) > 0
	for _, pt := range m.Points {
		if _, err := strconv.ParseFloat(pt.Value, 64); err != nil {
			numeric = false
			break
		}
	}
	xs := make([]float64, len(m.Points))
	for i, pt := range m.Points {
		if numeric {
			xs[i], _ = strconv.ParseFloat(pt.Value, 64)
		} else {
			xs[i] = float64(i)
			p.XTicks = append(p.XTicks, report.SVGTick{X: float64(i), Label: pt.Value})
		}
	}
	qs := make([]float64, len(m.Points))
	var nmiXs, nmiYs []float64
	for i, pt := range m.Points {
		qs[i] = pt.MeanQ
		if pt.MeanNMI != nil {
			nmiXs = append(nmiXs, xs[i])
			nmiYs = append(nmiYs, *pt.MeanNMI)
		}
	}
	if len(m.Points) > 0 {
		p.Add("mean_q", xs, qs)
	}
	if len(nmiXs) > 0 {
		p.Add("mean_nmi", nmiXs, nmiYs)
	}
	return p.Bytes()
}

// phasesSVG renders the aggregated trace phase breakdown as horizontal
// bars, ordered as Traces() orders them (total seconds descending).
func phasesSVG(sum *archive.TraceSummary) []byte {
	b := &report.SVGBars{
		Title: fmt.Sprintf("phase seconds (%d trace files)", sum.Files),
		Unit:  "s",
	}
	for _, ph := range sum.Phases {
		b.Add(ph.Phase, ph.Seconds)
	}
	return b.Bytes()
}

// counted wraps a handler with the per-endpoint request counter.
func counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c := telemetry.Default().Counter("repro_http_requests_total",
		"archive-service requests served, by endpoint", telemetry.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	}
}

// view is the ETag/304 discipline every archive view is mounted through.
// stamp names the archive state the response depends on; build produces
// the response from it — a []byte is a finished SVG, a json.RawMessage a
// finished JSON body (encodeJSON's), anything else is encoded by
// encodeJSON. If-None-Match is answered from the stamp alone, before
// build runs, so a poller of an unchanged archive costs the stamp's stat
// calls and nothing else. Validators compare weakly (a
// compressing proxy rewrites "tag" to W/"tag"). A failed build is
// answered by fail and carries no ETag.
func view(stamp func(*http.Request) string, build func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		etag := strconv.Quote(stamp(r))
		for _, cand := range strings.Split(r.Header.Get("If-None-Match"), ",") {
			cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
			if cand == etag || cand == "*" {
				w.Header().Set("ETag", etag)
				w.Header().Set("Cache-Control", "no-cache")
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		v, err := build(r)
		if err != nil {
			fail(w, err)
			return
		}
		var body []byte
		contentType := "application/json"
		switch v := v.(type) {
		case []byte:
			body, contentType = v, "image/svg+xml"
		case json.RawMessage:
			body = v
		default:
			if body, err = encodeJSON(v); err != nil {
				fail(w, err)
				return
			}
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
}

// encodeJSON is every JSON view's body: v indented by two spaces, then a
// newline. One buffer of the document's size; an Encoder doubles its way
// to two.
func encodeJSON(v any) (json.RawMessage, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// fail maps a query error to its status code: the archive package
// classifies (bad request vs missing resource), the handler translates.
func fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, archive.ErrBadKey):
		status = http.StatusBadRequest
	case errors.Is(err, archive.ErrUnknownAxis), errors.Is(err, os.ErrNotExist):
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}
