package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Dec()
	g.Add(-2.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h", L("k", "v"))
	b := r.Counter("same_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	other := r.Counter("same_total", "h", L("k", "w"))
	if a == other {
		t.Fatal("distinct label sets shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("same_total", "h")
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_cells_total", "cells processed", L("cache", "hit")).Add(3)
	r.Counter("repro_cells_total", "cells processed", L("cache", "miss")).Add(1)
	r.Gauge("repro_queue_depth", "open cells").Set(7)
	h := r.Histogram("repro_seconds", "durations", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	r.WritePrometheus(&b)
	got := b.String()
	want := strings.Join([]string{
		"# HELP repro_cells_total cells processed",
		"# TYPE repro_cells_total counter",
		`repro_cells_total{cache="hit"} 3`,
		`repro_cells_total{cache="miss"} 1`,
		"# HELP repro_queue_depth open cells",
		"# TYPE repro_queue_depth gauge",
		"repro_queue_depth 7",
		"# HELP repro_seconds durations",
		"# TYPE repro_seconds histogram",
		`repro_seconds_bucket{le="0.1"} 1`,
		`repro_seconds_bucket{le="1"} 2`,
		`repro_seconds_bucket{le="+Inf"} 3`,
		"repro_seconds_sum 30.55",
		"repro_seconds_count 3",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hb_seconds", "h", []float64{1, 2})
	h.Observe(1) // exactly on a bound counts into that bucket (le = <=)
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `hb_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary observation not in le=1 bucket:\n%s", b.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("cc_total", "h").Inc()
				r.Gauge("cg", "h").Add(1)
				r.Histogram("ch_seconds", "h", nil).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("cc_total", "h").Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "\nch_seconds_count 8000\n") {
		t.Fatalf("histogram count is not 8000:\n%s", b.String())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hh_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("measure")
	sp.End()
	tr.StartIter("clone", 3).End()
	if tr.Spans() != nil || tr.TotalsSince(0) != nil || tr.Mark() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	if err := tr.WriteJSONL(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerSpansAndTotals(t *testing.T) {
	tr := NewTracer()
	tr.StartIter("measure", 1).End()
	mark := tr.Mark()
	sp := tr.StartIter("measure", 2)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Start("merge").End()

	tot := tr.TotalsSince(0)
	if tot["measure"].Count != 2 || tot["merge"].Count != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot["measure"].Seconds <= 0 {
		t.Fatalf("measure seconds = %v, want > 0", tot["measure"].Seconds)
	}
	since := tr.TotalsSince(mark)
	if since["measure"].Count != 1 {
		t.Fatalf("totals since mark = %+v", since)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.StartIter("measure", 2).End()
	tr.StartIter("measure", 1).End()
	tr.Start("cluster").End()
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	// Reading traces back — headers, torn and garbage lines included — is
	// archive.Store.Traces' job (see its tests); here, every line written
	// must be one whole span.
	var spans []Span
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		var sp Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		spans = append(spans, sp)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// WriteJSONL orders by iteration: run-scoped (0) first.
	if spans[0].Name != "cluster" || spans[1].Iter != 1 || spans[2].Iter != 2 {
		t.Fatalf("span order wrong: %+v", spans)
	}
}
