package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans and counters from the benchmark's own files,
// around its calls into each layer's public functions. Everything stays
// in memory until the workload ends. A nil *tracer records nothing, so
// the untraced run executes the same code without the bookkeeping.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []spanRec
	counters map[string]float64
}

// spanRec is one line of the span JSONL. Parent is 0 for a root span;
// spans of one repetition share Rep.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// span is an open span; nil when tracing is off.
type span struct {
	t   *tracer
	idx int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counters: map[string]float64{}}
}

// start opens a span under parent (nil for a root of repetition rep;
// children inherit the parent's rep).
func (t *tracer) start(parent *span, name string, rep int) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := spanRec{ID: len(t.spans) + 1, Name: name, Rep: rep, StartNS: now}
	if parent != nil {
		p := t.spans[parent.idx]
		rec.Parent, rec.Rep = p.ID, p.Rep
	}
	t.spans = append(t.spans, rec)
	return &span{t: t, idx: len(t.spans) - 1}
}

// end closes the span and returns its duration in seconds.
func (s *span) end() float64 {
	if s == nil {
		return 0
	}
	now := time.Since(s.t.origin).Nanoseconds()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	rec := &s.t.spans[s.idx]
	rec.EndNS = now
	return float64(rec.EndNS-rec.StartNS) / 1e9
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// durations lists the durations (seconds) of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfSeconds derives each span name's self time: the span's duration
// minus the part of that interval its child spans cover (children that
// run concurrently are counted once, by the union of their intervals).
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// writeJSONL writes one span per line, then one line per counter and
// one per span name's self time.
func (t *tracer) writeJSONL(path string) error {
	self := t.selfSeconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	type named struct {
		Kind  string  `json:"kind"`
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	emit := func(kind string, m map[string]float64) error {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := enc.Encode(named{kind, name, m[name]}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("counter", t.counters); err != nil {
		return err
	}
	if err := emit("self_seconds", self); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
