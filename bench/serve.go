package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/archive/serve"
	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/persist"
)

// The serve-archive1k traffic mix, in requests per deck of 40. Half
// are conditional GETs replaying the path's current ETag (what
// dashboards and CI pollers send; each must come back 304), half plain
// GETs. A repetition deals whole decks, so every repetition is exactly
// the same work.
const (
	pathRuns      = "/runs"
	pathStatus    = "/status"
	pathMarginals = "/marginals/iterations"
	pathPlot      = "/plots/iterations.svg"
)

type request struct {
	path        string
	conditional bool
}

func deck(rng *rand.Rand, keys []string) []request {
	var d []request
	add := func(n int, r request) {
		for i := 0; i < n; i++ {
			d = append(d, r)
		}
	}
	add(7, request{pathRuns, true})
	add(7, request{pathStatus, true})
	add(6, request{pathMarginals, true})
	for i := 0; i < 8; i++ {
		d = append(d, request{"/runs/" + keys[rng.Intn(len(keys))], false})
	}
	add(4, request{pathRuns, false})
	add(4, request{pathStatus, false})
	add(2, request{pathMarginals, false})
	add(2, request{pathPlot, false})
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// known is the first response seen for a path: later 200 bodies must
// equal it and conditional GETs replay its ETag.
type known struct {
	etag string
	body []byte
}

type observation struct {
	req     request
	seconds float64
	ok      bool
}

// serveRunner serves a 1000-run archive built through campaign.Execute
// with serve.NewHandler on a loopback httptest server and drives it
// closed-loop over one keep-alive connection, the next request sent only
// after the previous reply. One, not nproc: server and client share the
// process, so a single connection already keeps one thread runnable at
// all times, and a second one on the sandbox's two shared vCPUs measured
// the host's scheduler (wall time per rep spread 28% between runs).
type serveRunner struct {
	cfg   config
	decks int // decks per repetition

	spec      *campaign.Spec
	dir       string
	outcome   *campaign.Outcome
	buildWall float64 // seconds campaign.Execute took to build dir, cold
	csvSum    string  // digest of the served archive's campaign.csv
	store     *archive.Store
	server    *httptest.Server
	client    *http.Client
	keys      []string
	rng       *rand.Rand

	first map[string]known

	plan    []request     // the next rep's requests
	seen    []observation // the last rep's replies
	latency []float64     // every timed request so far, seconds
	repWall []float64
	repReqs int

	oracle oracle
}

// newServeRunner builds the archive to be served. That is input
// generation, and at 4-12 s of fsync-bound work it would bury anything a
// change moves into the server's own set-up, so it is not part of
// setup_s; the traced run reports it as cold_cells_per_s.
func newServeRunner(cfg config) (*serveRunner, error) {
	s := &serveRunner{cfg: cfg, decks: 4, oracle: newOracle(pinGrid, cfg)}
	if cfg.toy {
		s.decks = 1
	}
	var err error
	if s.spec, err = gridSpec(cfg); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(cfg.workDir, "archive-"); err != nil {
		return nil, err
	}
	start := time.Now()
	s.outcome, err = campaign.Execute(s.spec, campaign.ExecOptions{OutDir: s.dir, Jobs: cfg.nproc, Resume: true})
	s.buildWall = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if m := s.outcome.Manifest; m.Failures > 0 || m.Misses != len(s.outcome.Runs) {
		return nil, fmt.Errorf("archive build: %d of %d cells computed, %d failed", m.Misses, len(s.outcome.Runs), m.Failures)
	}
	if s.csvSum, _, err = fileDigest(s.outcome.CSVPath); err != nil {
		return nil, err
	}
	for _, run := range s.outcome.Runs {
		s.keys = append(s.keys, run.Key)
	}
	return s, nil
}

// setup opens the archive, starts the server and its clients, and
// fetches each conditional path once: the first full responses, whose
// ETags the conditional GETs replay.
func (s *serveRunner) setup() error {
	s.stop()
	var err error
	if s.store, err = archive.Open(s.dir); err != nil {
		return err
	}
	s.server = httptest.NewServer(serve.NewHandler(s.store, serve.Options{}))
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	s.rng = rand.New(rand.NewSource(s.cfg.seed))
	s.first = make(map[string]known)
	for _, path := range []string{pathRuns, pathStatus, pathMarginals} {
		if _, ok := s.get(request{path: path}); !ok {
			return fmt.Errorf("priming GET %s failed", path)
		}
	}
	s.deal()
	return nil
}

// stop shuts down the server and client of the previous set-up.
func (s *serveRunner) stop() {
	if s.server != nil {
		s.server.Close()
		s.client.CloseIdleConnections()
	}
}

// deal prepares the next repetition's requests.
func (s *serveRunner) deal() {
	s.plan = s.plan[:0]
	for d := 0; d < s.decks; d++ {
		s.plan = append(s.plan, deck(s.rng, s.keys)...)
	}
}

// get sends one request and reports its latency and whether the reply
// was the expected one.
func (s *serveRunner) get(r request) (float64, bool) {
	req, err := http.NewRequest(http.MethodGet, s.server.URL+r.path, nil)
	if err != nil {
		return 0, false
	}
	prior, seen := s.first[r.path]
	if r.conditional {
		req.Header.Set("If-None-Match", prior.etag)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return time.Since(start).Seconds(), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return elapsed, false
	}
	if r.conditional {
		return elapsed, resp.StatusCode == http.StatusNotModified && len(body) == 0
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		return elapsed, false
	}
	if !seen {
		s.first[r.path] = known{etag: resp.Header.Get("ETag"), body: body}
		return elapsed, resp.Header.Get("ETag") != ""
	}
	return elapsed, bytes.Equal(body, prior.body)
}

func (s *serveRunner) rep(tr *tracer, parent *span) error {
	s.seen = make([]observation, 0, len(s.plan))
	start := time.Now()
	for _, r := range s.plan {
		sp := tr.start(parent, spanName(r), 0)
		secs, ok := s.get(r)
		sp.end()
		s.seen = append(s.seen, observation{r, secs, ok})
	}
	s.repWall = append(s.repWall, time.Since(start).Seconds())
	return nil
}

func spanName(r request) string {
	name := "serve GET " + r.path
	if strings.HasPrefix(r.path, "/runs/") {
		name = "serve GET /runs/{key}"
	}
	if r.conditional {
		return name + " 304"
	}
	return name + " 200"
}

func (s *serveRunner) check(*tracer, *span) (int, int, error) {
	attempted, failed := 0, 0
	for _, o := range s.seen {
		attempted++
		if !o.ok {
			failed++
		}
		s.latency = append(s.latency, o.seconds)
	}
	s.repReqs = attempted
	// The archive the requests were answered from must be the campaign's.
	failed += s.oracle.mismatch(s.csvSum)
	s.deal()
	return attempted, min(failed, attempted), nil
}

func (s *serveRunner) close() {
	s.stop()
	os.RemoveAll(s.dir)
}

func (s *serveRunner) layers(tr *tracer, lv layerValues) error {
	// The first rep was the warm-up.
	timed := s.latency[s.repReqs:]
	lv["serve_req_per_s"] = float64(s.repReqs) / median(s.repWall[1:])
	lv["serve_p50_ms"] = percentile(timed, 50) * 1e3
	lv["serve_p99_ms"] = percentile(timed, 99) * 1e3

	root := tr.start(nil, "layers", 0)
	defer root.end()
	ms := func(name string, n int, fn func() error) error {
		sp := tr.start(root, name, 0)
		secs, err := timeN(n, fn)
		sp.end()
		lv[name] = secs * 1e3
		return err
	}
	us := func(name string, n int, fn func() error) error {
		err := ms(name, n, fn)
		lv[name] *= 1e3
		return err
	}

	// archive: one call each on the 1000-run Store.
	key := s.keys[len(s.keys)/2]
	steps := []struct {
		name  string
		micro bool
		n     int
		fn    func() error
	}{
		{"archive.stamp_us", true, 25, func() error { s.store.Stamp(); return nil }},
		{"archive.runs_ms", false, 5, func() error { _, err := s.store.Runs(); return err }},
		{"archive.get_ms", false, 5, func() error { _, err := s.store.Get(key); return err }},
		{"archive.status_ms", false, 5, func() error { _, err := s.store.Status(); return err }},
		{"archive.marginals_ms", false, 5, func() error { _, err := s.store.Marginals("iterations"); return err }},
		{"archive.tail_full_ms", false, 5, func() error { _, _, err := s.store.TailLog(0); return err }},
		// Store.Get re-reads the ledger and loads the document on every call.
		{"fleet.read_index_ms", false, 5, func() error {
			_, err := fleet.ReadIndex(filepath.Join(s.dir, "runs", "index.json"))
			return err
		}},
		{"persist.load_result_us", true, 25, func() error {
			_, err := persist.LoadResult(filepath.Join(s.dir, "runs", key+".json"))
			return err
		}},
	}
	for _, st := range steps {
		run := ms
		if st.micro {
			run = us
		}
		if err := run(st.name, st.n, st.fn); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	_, end, err := s.store.TailLog(0)
	if err != nil {
		return err
	}
	if err := us("archive.tail_idle_us", 25, func() error { _, _, err := s.store.TailLog(end); return err }); err != nil {
		return err
	}

	// events: the first poll replays the archive's history, later ones
	// find nothing new.
	watcher := events.NewWatcher(s.store)
	sp := tr.start(root, "events.first_poll", 0)
	start := time.Now()
	evs, err := watcher.Poll()
	lv["events.first_poll_ms"] = time.Since(start).Seconds() * 1e3
	sp.end()
	if err != nil {
		return err
	}
	lv["events.first_poll_events"] = float64(len(evs))
	if err := us("events.idle_poll_us", 25, func() error { _, err := watcher.Poll(); return err }); err != nil {
		return err
	}

	// serve: per-endpoint median latency.
	const perEndpoint = 15
	for _, ep := range []struct {
		name string
		req  request
	}{
		{"serve.runs_200_ms", request{pathRuns, false}},
		{"serve.runs_304_ms", request{pathRuns, true}},
		{"serve.status_200_ms", request{pathStatus, false}},
		{"serve.get_200_ms", request{"/runs/" + key, false}},
		{"serve.marginals_200_ms", request{pathMarginals, false}},
		{"serve.plot_200_ms", request{pathPlot, false}},
	} {
		if err := ms(ep.name, perEndpoint, func() error {
			if _, ok := s.get(ep.req); !ok {
				return fmt.Errorf("GET %s: unexpected reply", ep.req.path)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	// Wasted work of a conditional GET: 1 means a 304 costs as much as
	// the full 200, 0 is the stat-only 304 the ETag design promises.
	lv["serve.cond_cost_ratio"] = lv["serve.runs_304_ms"] / lv["serve.runs_200_ms"]

	archiveScores(s.outcome.Docs, lv)
	telemetryLayer(lv, s.cfg)
	return campaignLayer(tr, root, lv, s.cfg, s.spec, s.dir, s.outcome, s.buildWall)
}
