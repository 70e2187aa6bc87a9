// Package telemetry is the repo's zero-dependency observability layer:
// a thread-safe metrics registry (counters, gauges, histograms) with a
// hand-rolled Prometheus text encoder, and a lightweight phase tracer
// emitting structured JSONL spans.
//
// Telemetry is observability only. Nothing in this package may influence
// a measurement: instrumented code paths record what happened, and the
// bit-identity contract (identical archives for any Workers >= 1, with
// telemetry on or off) is asserted by parity tests in the instrumented
// packages. Metrics live in a process-wide default registry so that one
// /metrics endpoint sees every layer — core, substrate, wire, fleet,
// campaign — without plumbing a registry handle through each of them.
package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series. Series of
// one family differ only in their labels.
type Label struct {
	Key   string
	Value string
}

// L builds a Label; registration reads more naturally with it:
//
//	reg.Counter("repro_campaign_cells_total", "...", telemetry.L("cache", "hit"))
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing float64, safe for concurrent
// use. The zero value is ready; counters are normally obtained from a
// Registry so they appear in its exposition.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (v < 0 is ignored: counters only go
// up, per the Prometheus data model).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default histogram bucket upper bounds, in seconds:
// wide enough to span a sub-millisecond clone and a two-minute wire
// swarm.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram counts observations into cumulative buckets, tracking the
// running sum and count. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []uint64  // len(bounds)+1, non-cumulative; encoded cumulatively
	sum     float64
	count   uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.buckets[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// metricKind discriminates a family's exposition TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labelled instance within a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // keyed by rendered label set
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use.
// Registration is idempotent: asking for an already-registered
// name+label set returns the existing instrument, so package-level
// metric variables in different files can share a series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// std is the process-wide registry every instrumented package registers
// into; /metrics endpoints expose it.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// lookup finds or creates the family and series for name+labels under
// one lock (so an exposition pass never observes a series without its
// instrument), panicking on a kind conflict — two meanings for one
// metric name is a programming error on the order of a duplicate
// backend registration. init populates the instrument of a new series.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, init func(*series)) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		init(s)
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name+labels, registering it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, func(s *series) { s.c = &Counter{} }).c
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func(s *series) { s.g = &Gauge{} }).g
}

// Histogram returns the histogram for name+labels, registering it on
// first use with the given bucket upper bounds (nil means DefBuckets).
// Bounds are fixed at first registration; later calls reuse them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if bounds == nil {
			bounds = DefBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		s.h = &Histogram{bounds: bs, buckets: make([]uint64, len(bs)+1)}
	}).h
}

// WritePrometheus renders every family in text exposition format 0.0.4,
// deterministically ordered (families by name, series by label set).
func (r *Registry) WritePrometheus(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		r.mu.Lock()
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range ss {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(s.c.Value()))
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(s.g.Value()))
			case kindHistogram:
				writeHistogram(w, f.name, s)
			}
		}
	}
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet of one
// histogram series.
func writeHistogram(w *strings.Builder, name string, s *series) {
	h := s.h
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]uint64(nil), h.buckets...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(withLE(s.labels, formatValue(b))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(withLE(s.labels, "+Inf")), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels), count)
}

// withLE appends the bucket-boundary label to a label set.
func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}

// renderLabels renders a label set as {k="v",...}, sorted by key; the
// empty set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
