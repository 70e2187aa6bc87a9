package archive

import (
	"fmt"
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

// MarginalAxes lists the canonical axis names Marginals accepts: the
// scenario axis plus every option coordinate of campaign.ConfigAxes.
func MarginalAxes() []string {
	axes := []string{"scenario"}
	for _, a := range campaign.ConfigAxes {
		axes = append(axes, a.Name)
	}
	return axes
}

// resolveAxis maps an accepted spelling to the canonical axis name and
// the short key cell Config strings render it under (none for the
// scenario axis, which is an entry field). Canonical names and Config
// short keys both resolve, case-insensitively, plus "intensity" — the
// dynamics axis's operational name: it scales each scenario's scripted
// timeline intensity.
func resolveAxis(axis string) (canon, key string, ok bool) {
	axis = strings.ToLower(axis)
	switch axis {
	case "scenario":
		return axis, "", true
	case "intensity":
		axis = "dynamics"
	}
	for _, a := range campaign.ConfigAxes {
		if axis == a.Name || axis == a.Key {
			return a.Name, a.Key, true
		}
	}
	return "", "", false
}

// Marginals computes the marginal curve for one axis from the streamed
// manifest (manifest.log): every finished cell of the grid, available
// while workers are still executing — the curve sharpens as cells land.
// Cells are deduplicated by (run index, key) with the latest record
// winning, so warm re-invocations that re-append the log never double-
// count, and only Status "done" cells enter the averages. Torn log
// lines (a worker killed mid-append) are skipped.
func (s *Store) Marginals(axis string) (*Marginal, error) {
	sn := s.Snapshot()
	if err := sn.advanceCells(nil); err != nil {
		return nil, err
	}
	return sn.Marginals(axis)
}

// Marginals is Store.Marginals over the finished cells as of the last
// Advance.
func (s *Snapshot) Marginals(axis string) (*Marginal, error) {
	canon, key, ok := resolveAxis(axis)
	if !ok {
		return nil, fmt.Errorf("archive: %w %q (have %v)", ErrUnknownAxis, axis, MarginalAxes())
	}
	cells := s.finished()
	type acc struct {
		runs, nmiCells int
		q, nmi, sim    float64
	}
	groups := make(map[string]*acc)
	for _, e := range cells {
		val, ok := axisValue(e, key)
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

// axisValue extracts one cell's coordinate on an axis from its manifest
// entry: the scenario display name (key ""), or the field the Config
// string ("dyn=1 iters=3 window=0 rotate=false seed=1 scale=0.2 top=0.5
// backend=sim workers=1") renders under key.
func axisValue(e campaign.Entry, key string) (string, bool) {
	if key == "" {
		return e.Scenario, e.Scenario != ""
	}
	for tok := range strings.FieldsSeq(e.Config) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return v, true
		}
	}
	return "", false
}
