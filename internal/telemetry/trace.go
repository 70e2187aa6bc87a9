package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one completed phase interval. Spans serialize as JSONL: one
// object per line, append-friendly and torn-line tolerant on read
// (archive.Store.Traces reads them back through fleet.ScanLines).
type Span struct {
	// Name identifies the phase: "compile", "measure", "clone", "merge",
	// "cluster", "nmi".
	Name string `json:"name"`
	// Iter is the 1-based measurement iteration the span belongs to, or
	// 0 for run-scoped phases.
	Iter int `json:"iter,omitempty"`
	// StartUnix is the wall-clock start in fractional Unix seconds.
	StartUnix float64 `json:"start_unix"`
	// Seconds is the span's duration.
	Seconds float64 `json:"seconds"`
}

// Tracer collects phase spans. All methods are nil-safe no-ops on a nil
// receiver, so instrumented code records unconditionally and tracing
// costs one pointer check when disabled. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// ActiveSpan is an in-progress interval; End records it.
type ActiveSpan struct {
	t     *Tracer
	name  string
	iter  int
	begin time.Time
}

// Start opens a run-scoped span.
func (t *Tracer) Start(name string) *ActiveSpan { return t.StartIter(name, 0) }

// StartIter opens a span tied to one measurement iteration.
func (t *Tracer) StartIter(name string, iter int) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, iter: iter, begin: time.Now()}
}

// End records the span and returns its duration in seconds, so
// instrumentation can feed the same interval into a metrics counter.
// Nil-safe: spans from a nil tracer end silently at 0.
func (s *ActiveSpan) End() float64 {
	if s == nil {
		return 0
	}
	d := time.Since(s.begin)
	s.t.add(Span{
		Name:      s.name,
		Iter:      s.iter,
		StartUnix: float64(s.begin.UnixNano()) / 1e9,
		Seconds:   d.Seconds(),
	})
	return d.Seconds()
}

// Record adds an externally timed span: a phase whose duration the
// caller measured itself. Nil-safe.
func (t *Tracer) Record(name string, iter int, start time.Time, seconds float64) {
	if t == nil {
		return
	}
	t.add(Span{
		Name:      name,
		Iter:      iter,
		StartUnix: float64(start.UnixNano()) / 1e9,
		Seconds:   seconds,
	})
}

func (t *Tracer) add(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Mark returns the current span count; TotalsSince(mark) aggregates
// only spans recorded after it, letting a caller reuse one tracer
// across runs without mixing their phase totals.
func (t *Tracer) Mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// PhaseTotal aggregates the spans of one phase name.
type PhaseTotal struct {
	Count   int
	Seconds float64
}

// TotalsSince sums the spans recorded after Mark() returned mark.
func (t *Tracer) TotalsSince(mark int) map[string]PhaseTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]PhaseTotal)
	if mark < 0 || mark > len(t.spans) {
		mark = len(t.spans)
	}
	for _, sp := range t.spans[mark:] {
		pt := out[sp.Name]
		pt.Count++
		pt.Seconds += sp.Seconds
		out[sp.Name] = pt
	}
	return out
}

// WriteJSONL writes every span as one JSON object per line, ordered by
// (iteration, recording order) so traces read chronologically even when
// parallel workers interleaved the recording.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Iter < spans[b].Iter })
	for _, sp := range spans {
		b, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
