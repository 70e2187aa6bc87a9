package archive

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/telemetry"
)

// PhaseStat aggregates one phase name across every trace file.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Spans   int     `json:"spans"`
	Seconds float64 `json:"seconds"`
}

// TraceSummary is the archive's aggregated phase breakdown.
type TraceSummary struct {
	// Files counts the trace files read.
	Files int `json:"files"`
	// Phases sums span durations by phase name, sorted by total seconds
	// descending (ties by name) — the order a profile is read in.
	Phases []PhaseStat `json:"phases,omitempty"`
}

// Traces aggregates every traces/<key>.jsonl (`campaign run -trace`
// writes one per computed run) into a phase breakdown. Traces are
// observability output: Stamp() — and therefore the HTTP service's ETag
// — ignores them by construction, since its change detector stats an
// explicit file list that the traces directory is not on. A missing
// traces directory is an empty summary, not an error, and unreadable or
// torn files degrade to their parseable lines (fleet.ScanLines, the one
// JSONL file reader) — the read-path discipline every other query
// follows. The header line carries no span name and is skipped.
func (s *Store) Traces() (*TraceSummary, error) {
	sum := &TraceSummary{}
	dir, err := os.ReadDir(s.at.Traces())
	if err != nil {
		if os.IsNotExist(err) {
			return sum, nil
		}
		return nil, err
	}
	totals := make(map[string]PhaseStat)
	for _, d := range dir {
		key, ok := strings.CutSuffix(d.Name(), ".jsonl")
		if !ok || d.IsDir() || !fleet.IsArchiveKey(key) {
			continue
		}
		path := filepath.Join(s.at.Traces(), d.Name())
		if _, err := fleet.ScanLines(path, 0, func(line []byte) {
			var sp telemetry.Span
			if json.Unmarshal(line, &sp) != nil || sp.Name == "" {
				return
			}
			t := totals[sp.Name]
			t.Phase = sp.Name
			t.Spans++
			t.Seconds += sp.Seconds
			totals[sp.Name] = t
		}); err != nil {
			continue
		}
		sum.Files++
	}
	for _, t := range totals {
		sum.Phases = append(sum.Phases, t)
	}
	sort.Slice(sum.Phases, func(i, j int) bool {
		a, b := sum.Phases[i], sum.Phases[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return a.Phase < b.Phase
	})
	return sum, nil
}
