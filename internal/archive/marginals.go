package archive

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
)

// Marginal is one axis's marginal curve: the campaign grid collapsed
// onto a single swept dimension, each point averaging every finished
// cell that shares the axis coordinate. It answers the operator's
// first-order questions — "how does NMI move with dynamics intensity?",
// "what does doubling iterations buy?" — without re-running anything.
type Marginal struct {
	// Axis is the canonical axis name (aliases resolve: "intensity" and
	// "dyn" both mean "dynamics").
	Axis string `json:"axis"`
	// Cells counts the finished grid cells the curve aggregates.
	Cells int `json:"cells"`
	// Points are the per-coordinate aggregates, sorted by coordinate
	// (numerically where the axis is numeric).
	Points []MarginalPoint `json:"points"`
}

// MarginalPoint aggregates the cells at one axis coordinate.
type MarginalPoint struct {
	// Value is the coordinate as rendered in the cell configs ("0.5",
	// "GT", "true").
	Value string `json:"value"`
	// Runs counts the cells averaged into this point.
	Runs int `json:"runs"`
	// MeanQ, MeanNMI and MeanSimSeconds average the cells' headline
	// scores; MeanNMI is nil when no cell at this coordinate had ground
	// truth (NMICells counts the ones that did).
	MeanQ          float64  `json:"mean_q"`
	MeanNMI        *float64 `json:"mean_nmi,omitempty"`
	NMICells       int      `json:"nmi_cells"`
	MeanSimSeconds float64  `json:"mean_sim_seconds"`
}

// MarginalAxes lists the canonical axis names Marginals accepts.
func MarginalAxes() []string {
	return []string{"scenario", "dynamics", "iterations", "window", "rotate_root", "seed", "scale", "top_fraction", "workers"}
}

// axisAliases maps accepted spellings to canonical axis names: the
// short keys the cell Config strings use, plus "intensity" (the
// dynamics axis's operational name — it scales each scenario's
// scripted timeline intensity).
var axisAliases = map[string]string{
	"scenario":     "scenario",
	"dynamics":     "dynamics",
	"intensity":    "dynamics",
	"dyn":          "dynamics",
	"iterations":   "iterations",
	"iters":        "iterations",
	"window":       "window",
	"rotate_root":  "rotate_root",
	"rotate":       "rotate_root",
	"seed":         "seed",
	"scale":        "scale",
	"top_fraction": "top_fraction",
	"top":          "top_fraction",
	"workers":      "workers",
}

// Marginals computes the marginal curve for one axis from the streamed
// manifest (manifest.log): every finished cell of the grid, available
// while workers are still executing — the curve sharpens as cells land.
// Cells are deduplicated by (run index, key) with the latest record
// winning, so warm re-invocations that re-append the log never double-
// count, and only Status "done" cells enter the averages. Torn log
// lines (a worker killed mid-append) are skipped.
func (s *Store) Marginals(axis string) (*Marginal, error) {
	canon, ok := axisAliases[strings.ToLower(axis)]
	if !ok {
		return nil, fmt.Errorf("archive: %w %q (have %v)", ErrUnknownAxis, axis, MarginalAxes())
	}
	cells, err := s.finishedCells()
	if err != nil {
		return nil, err
	}
	type acc struct {
		runs, nmiCells int
		q, nmi, sim    float64
	}
	groups := make(map[string]*acc)
	for _, e := range cells {
		val, ok := axisValue(e, canon)
		if !ok {
			continue // a cell config written before this axis existed
		}
		g := groups[val]
		if g == nil {
			g = &acc{}
			groups[val] = g
		}
		g.runs++
		g.q += e.Q
		g.sim += e.SimSeconds
		if e.NMI != nil {
			g.nmiCells++
			g.nmi += *e.NMI
		}
	}
	m := &Marginal{Axis: canon, Cells: len(cells)}
	for val, g := range groups {
		p := MarginalPoint{
			Value:          val,
			Runs:           g.runs,
			MeanQ:          g.q / float64(g.runs),
			NMICells:       g.nmiCells,
			MeanSimSeconds: g.sim / float64(g.runs),
		}
		if g.nmiCells > 0 {
			mean := g.nmi / float64(g.nmiCells)
			p.MeanNMI = &mean
		}
		m.Points = append(m.Points, p)
	}
	sort.Slice(m.Points, func(i, j int) bool {
		a, aerr := strconv.ParseFloat(m.Points[i].Value, 64)
		b, berr := strconv.ParseFloat(m.Points[j].Value, 64)
		if aerr == nil && berr == nil {
			return a < b
		}
		return m.Points[i].Value < m.Points[j].Value
	})
	return m, nil
}

// finishedCells reads the streamed manifest and returns every finished
// cell exactly once — latest record per (run index, key) wins. When the
// log is absent (an archive written before streaming existed, or one
// whose log was pruned) it falls back to the cumulative manifest.json.
func (s *Store) finishedCells() ([]campaign.Entry, error) {
	if _, err := os.Stat(s.logPath()); os.IsNotExist(err) {
		man, merr := readManifest(s.manifestPath())
		if merr != nil {
			return nil, nil // no log, no manifest: nothing finished yet
		}
		var cells []campaign.Entry
		for _, e := range man.Entries {
			if e.Status == "done" {
				cells = append(cells, e)
			}
		}
		return cells, nil
	}
	entries, _, err := s.TailLog(0)
	if err != nil {
		return nil, err
	}
	type cellID struct {
		index int
		key   string
	}
	order := make(map[cellID]int)
	cells := entries[:0]
	for _, e := range entries {
		if e.Status != "done" {
			continue // a failed cell — not a finished result
		}
		id := cellID{e.Index, e.Key}
		if i, ok := order[id]; ok {
			cells[i] = e // warm re-invocation: the latest record wins
			continue
		}
		order[id] = len(cells)
		cells = append(cells, e)
	}
	return cells, nil
}

// axisValue extracts one cell's coordinate on an axis from its manifest
// entry: the scenario display name, or the named field of the Config
// string ("dyn=1 iters=3 window=0 rotate=false seed=1 scale=0.2
// top=0.5 workers=1").
func axisValue(e campaign.Entry, axis string) (string, bool) {
	if axis == "scenario" {
		return e.Scenario, e.Scenario != ""
	}
	short := axis
	switch axis {
	case "dynamics":
		short = "dyn"
	case "iterations":
		short = "iters"
	case "rotate_root":
		short = "rotate"
	case "top_fraction":
		short = "top"
	}
	for _, tok := range strings.Fields(e.Config) {
		if v, ok := strings.CutPrefix(tok, short+"="); ok {
			return v, true
		}
	}
	return "", false
}
