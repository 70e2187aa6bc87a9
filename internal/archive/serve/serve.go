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
// and responses are byte-stable between state changes. The consequence
// of the ETag design: an ETag names archive state, not a URL, so a
// request replaying the current tag is answered 304 without its path
// arguments being examined. Lease heartbeats deliberately do not enter
// the ETag: they refresh every TTL/3 without changing any completed
// result. Trace files under traces/ are equally excluded, so
// /plots/phases.svg keys its ETag on Stamp() plus the separate
// TracesStamp().
//
// The bodies of /marginals/{axis} and /plots/{axis}.svg are a function
// of Stamp() alone (the finished cells of manifest.log, or manifest.json
// without a log). Each keeps the body it last built per URL path under
// the current ETag — for the canonical axis names only, so the paths a
// client invents cannot grow it — and a plain GET under that ETag is
// answered from it: no lock, no Advance, no aggregation, no rendering.
// The first request that computes another ETag drops them. /status,
// /runs and /runs/{key} read what the stamp does not cover: the leases,
// the runs/ listing, one result document. A 200 of each first advances
// the handler's one archive.Snapshot, reading only the bytes appended
// since the previous 200 and listing runs/ again only when the directory
// or the ledger or log moved: O(what changed), not O(archive), for about
// 1 MB held per 10^3 runs. /runs keeps the body it last encoded with the
// Snapshot's Generation at the time, and serves it again while the
// generation holds (a document renamed into runs/ moves the generation,
// not the stamp), so a warm /runs builds no listing. /status is built
// on every 200, from the ledger counts the Snapshot folded with its
// lines, the manifest heads it holds, the leases and the campaign.csv
// stat: its cost does not grow with the ledger. /runs/{key} reads its
// document on every 200. /plots/phases.svg reads the trace files
// through the Store on every 200: TracesStamp() (file count, summed
// size, newest mtime) decides its 304s, never which body a 200 gets.
// The index reads no archive file.
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

// NewHandler returns the HTTP handler serving the store's read path.
func NewHandler(st *archive.Store, opt Options) http.Handler {
	h, _ := newHandler(st, opt)
	return h
}

// newHandler is NewHandler, also returning the body cache of the
// marginals and their plots.
func newHandler(st *archive.Store, opt Options) (http.Handler, *bodies) {
	stream := events.NewStream(events.NewWatcher(st), opt.EventInterval)
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
	// The bodies of each axis's marginal and plot, a function of Stamp()
	// alone.
	var paths []string
	for _, axis := range archive.MarginalAxes() {
		paths = append(paths, "/marginals/"+axis, "/plots/"+axis+".svg")
	}
	stamped := newBodies(paths...)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", counted("index", view(st.Stamp, nil, func(*http.Request) (any, error) {
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
	mux.HandleFunc("GET /status", counted("status", view(st.Stamp, nil, func(*http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) { return s.Status() })
	})))
	// The body /runs last encoded and the Snapshot generation it was
	// built at, under mu: while the generation holds, so does the
	// listing, and a 200 serves the same bytes without building it.
	var runsGen uint64
	var runsBody json.RawMessage
	mux.HandleFunc("GET /runs", counted("runs", view(st.Stamp, nil, func(*http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) {
			if runsBody != nil && s.Generation() == runsGen {
				return runsBody, nil
			}
			runs, err := s.Runs()
			if err != nil {
				return nil, err
			}
			body, err := encodeJSON(map[string]any{"runs": len(runs), "entries": runs})
			if err != nil {
				return nil, err
			}
			// MarshalIndent's buffer has room for twice the compact
			// document; what is kept is the body alone.
			runsGen, runsBody = s.Generation(), bytes.Clone(body)
			return runsBody, nil
		})
	})))
	mux.HandleFunc("GET /runs/{key}", counted("run", view(st.Stamp, nil, func(r *http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) { return s.Get(r.PathValue("key")) })
	})))
	mux.HandleFunc("GET /marginals/{axis}", counted("marginals", view(st.Stamp, stamped, func(r *http.Request) (any, error) {
		return current(func(s *archive.Snapshot) (any, error) { return s.Marginals(r.PathValue("axis")) })
	})))
	mux.HandleFunc("GET /plots/{name}", counted("plots", view(st.Stamp, stamped, func(r *http.Request) (any, error) {
		axis, ok := strings.CutSuffix(r.PathValue("name"), ".svg")
		if !ok {
			return nil, fmt.Errorf("plots: want /plots/{axis}.svg or /plots/phases.svg: %w", os.ErrNotExist)
		}
		return current(func(s *archive.Snapshot) (any, error) {
			m, err := s.Marginals(axis)
			if err != nil {
				return nil, err
			}
			return marginalSVG(m), nil
		})
	})))
	// Traces sit outside Stamp() by design, so the phase plot needs both
	// change detectors in its ETag.
	phasesStamp := func() string { return st.Stamp() + "|" + st.TracesStamp() }
	mux.HandleFunc("GET /plots/phases.svg", counted("plots", view(phasesStamp, nil, func(*http.Request) (any, error) {
		sum, err := st.Traces()
		if err != nil {
			return nil, err
		}
		return phasesSVG(sum), nil
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
	return mux, stamped
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
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		seen++
		e, ok := campaign.DecodeEntry(line)
		if !ok || !fleet.IsArchiveKey(e.Key) {
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
// calls and nothing else. A view whose body is a function of its ETag
// alone passes a cache: a plain GET under the ETag of the body kept for
// its path is answered from that body, without build. A failed build is
// answered by fail, carries no ETag and is never kept.
func view(stamp func() string, cache *bodies, build func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		etag := strconv.Quote(stamp())
		if matches(r.Header.Get("If-None-Match"), etag) {
			w.Header().Set("ETag", etag)
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		b, ok := cache.get(etag, r.URL.Path)
		if !ok {
			v, err := build(r)
			if err == nil {
				b, err = encode(v)
			}
			if err != nil {
				fail(w, err)
				return
			}
			cache.put(etag, r.URL.Path, b)
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Content-Type", b.contentType)
		w.Header().Set("Content-Length", b.length)
		w.Write(b.data)
	}
}

// matches reports whether an If-None-Match header names etag or "*".
// Validators compare weakly: a compressing proxy rewrites "tag" to
// W/"tag".
func matches(header, etag string) bool {
	for header != "" {
		var cand string
		cand, header, _ = strings.Cut(header, ",")
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == etag || cand == "*" {
			return true
		}
	}
	return false
}

// body is one finished 200: the bytes and the headers that describe them.
type body struct {
	data                []byte
	contentType, length string
}

// encode finishes what a view's build returned.
func encode(v any) (body, error) {
	contentType := "application/json"
	var data []byte
	switch v := v.(type) {
	case []byte:
		data, contentType = v, "image/svg+xml"
	case json.RawMessage:
		data = v
	default:
		var err error
		if data, err = encodeJSON(v); err != nil {
			return body{}, err
		}
	}
	return body{data, contentType, strconv.Itoa(len(data))}, nil
}

// bodies keeps the last body served per URL path under one ETag, for
// the paths it was made with only. The first request that computes
// another ETag drops every entry, and only a built body is put, so it
// holds at most one body per path it was made with, whatever paths
// clients send (an axis alias or another case is built every time). A
// nil *bodies keeps nothing.
type bodies struct {
	mu    sync.Mutex
	etag  string
	paths map[string]bool // the paths a body may be kept for
	by    map[string]body
}

func newBodies(paths ...string) *bodies {
	c := &bodies{paths: make(map[string]bool)}
	for _, p := range paths {
		c.paths[p] = true
	}
	return c
}

// get returns the body kept for path under etag.
func (c *bodies) get(etag, path string) (body, bool) {
	if c == nil {
		return body{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if etag != c.etag {
		c.etag, c.by = etag, make(map[string]body)
		return body{}, false
	}
	b, ok := c.by[path]
	return b, ok
}

// put keeps b for path, unless path is not one of the cache's or another
// ETag has been computed since the request that built b computed etag.
func (c *bodies) put(etag, path string, b body) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if etag == c.etag && c.paths[path] {
		c.by[path] = b
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
