// Package campaign is the sweep-orchestration subsystem: it turns "run
// this scenario" into "run this whole experimental surface, skip what is
// already computed, and aggregate the rest".
//
// The paper's evidence is not one measurement but a grid of them — every
// dataset, clustering setting and measurement budget, scored by NMI — and
// a production deployment of the method faces the same shape at scale:
// millions of (scenario, configuration) cells, re-run incrementally as
// scenarios evolve. A Campaign is the declarative unit for that: it names
// scenario specs (registry names or spec files), lists values for any of
// the option axes ConfigAxes declares, and deterministically expands the
// cross-product into an ordered run list.
//
// # Content-addressed caching and resume
//
// Every expanded run is keyed by a content hash over exactly the inputs
// that determine its Result: the resolved scenario spec's canonical JSON
// (including its scaled dynamics timeline) and the canonicalised
// result-relevant options. Execution policy — the campaign-level job
// count and the per-run worker count — is deliberately excluded: the
// measurement pipeline's bit-identity contract guarantees the same bytes
// for any fan-out, so the key addresses the result's content, not the
// schedule that produced it. Completed runs are archived under
// runs/<key>.json in the campaign's output directory; a later invocation
// (after a crash, a kill, or an extended grid) loads archived results
// instead of recomputing, so resume performs zero redone work and the
// aggregate is byte-identical to an uninterrupted run's.
//
// # Determinism contract
//
// Expansion order is fixed (scenarios outermost, then the axes in
// ConfigAxes order, the last changing fastest — each axis's values in
// declaration order), sim-backed run results are
// bit-identical for any jobs >= 1 and any per-run worker count, and the
// aggregate CSV is derived from the archived documents in run order — so
// two invocations of the same campaign produce byte-identical aggregates
// regardless of parallelism, interruption, or cache state. Wire-backed
// cells are real measurements: the archived result is reused on resume
// exactly like any other, but recomputing it from scratch would yield
// (slightly) different bytes — which is why the backend is part of the
// content key.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ScenarioRef names one scenario of the campaign: either a registered
// scenario (Name) or a spec file (File, resolved relative to the campaign
// spec's own directory when it was loaded from disk). Exactly one of the
// two must be set.
type ScenarioRef struct {
	Name string `json:"name,omitempty"`
	File string `json:"file,omitempty"`
}

func (r ScenarioRef) String() string {
	if r.Name != "" {
		return r.Name
	}
	return r.File
}

// Axes are the option dimensions the campaign sweeps, in expansion order.
// Every axis is optional; an empty axis contributes its single default
// value, so the cross-product is never empty. Duplicate values within an
// axis are rejected — they would expand to byte-identical runs and always
// indicate a sweep-configuration typo. Each field has one ConfigAxes row,
// which declares its default, the values it admits and its Run
// coordinate.
type Axes struct {
	// Dynamics values scale the intensity of each scenario's scripted
	// dynamics timeline: 1 replays it as written, 0 strips it entirely
	// (the static base topology), and intermediate values attenuate the
	// scalar disturbances — link-scale factors interpolate geometrically
	// toward 1 (bandwidth contrast is a ratio) and burst sizes scale
	// linearly. Failures and churn are binary and replay whenever the
	// intensity is positive. Default 1.
	Dynamics []float64 `json:"dynamics,omitempty"`
	// Iterations values override Options.Iterations (default 30, the
	// paper's standard budget).
	Iterations []int `json:"iterations,omitempty"`
	// Window values override Options.Window (default 0 = cumulative).
	Window []int `json:"window,omitempty"`
	// RotateRoot values override Options.RotateRoot (default false).
	RotateRoot []bool `json:"rotate_root,omitempty"`
	// Seed values override Options.Seed (default 1).
	Seed []int64 `json:"seed,omitempty"`
	// Scale values scale the broadcast payload (1 = the paper's 239 MB),
	// the knob that turns a full measurement into a cheap smoke cell.
	Scale []float64 `json:"scale,omitempty"`
	// TopFraction values override Options.TopFraction: a value in (0,1)
	// keeps only that fraction of the strongest measured edges before
	// clustering; 0 or 1 keeps everything (default 0, the paper's
	// setting). Result-relevant: every value enters the content hash —
	// canonicalised so that 0 and 1, being the same measurement, share a
	// key (an axis listing both expands to dup cells, computed once).
	TopFraction []float64 `json:"top_fraction,omitempty"`
	// Backend values select the measurement substrate per cell: "sim"
	// (default; the deterministic simulator) or "wire" (real BitTorrent
	// swarms over loopback TCP). Result-relevant: a wire run is a real
	// measurement, never cache-equivalent to a sim run of the same cell,
	// so the backend enters the content hash (canonicalised — "" and
	// "sim" are the same axis value, and listing both is a duplicate).
	// Backends that cannot replay a scenario's dynamics timeline are
	// rejected at expansion.
	Backend []string `json:"backend,omitempty"`
	// Workers values set the per-run worker count. Results never depend
	// on it (the bit-identity contract), so it is execution policy only:
	// it is excluded from the cache key, forced to at least 1, and
	// forced to exactly 1 whenever the campaign runs
	// with Jobs > 1, per the repository's worker-budget discipline —
	// fan-out is applied at the outermost level only, never
	// multiplicatively. Default 1.
	Workers []int `json:"workers,omitempty"`
}

// Spec is a declarative sweep campaign: the scenarios to measure and the
// option axes to cross them with. Specs serialise to JSON (Load/Encode) and
// assemble fluently (NewBuilder).
type Spec struct {
	// Name identifies the campaign (manifest header, table title).
	Name string `json:"name"`
	// Note documents the campaign's purpose.
	Note string `json:"note,omitempty"`
	// Scenarios are the scenario axis, outermost in expansion order.
	Scenarios []ScenarioRef `json:"scenarios"`
	// Axes are the option dimensions; zero value = a single default run
	// per scenario.
	Axes Axes `json:"axes,omitempty"`

	// baseDir resolves relative ScenarioRef.File entries for specs read
	// from disk; Load sets it to the spec file's directory.
	baseDir string
}

// Clone returns a deep copy of the campaign spec.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Scenarios = append([]ScenarioRef(nil), s.Scenarios...)
	for _, a := range ConfigAxes {
		a.copy(&c.Axes)
	}
	return &c
}

// Validate checks the campaign spec for structural soundness. Scenario
// resolvability is checked at expansion time — a registry name may be
// registered, and a spec file written, after the campaign spec is built.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("campaign %s: needs at least one scenario", s.Name)
	}
	for i, r := range s.Scenarios {
		if (r.Name == "") == (r.File == "") {
			return fmt.Errorf("campaign %s: scenario %d must set exactly one of name and file, have name=%q file=%q",
				s.Name, i, r.Name, r.File)
		}
	}
	for _, a := range ConfigAxes {
		if err := a.check(&s.Axes); err != nil {
			return fmt.Errorf("campaign %s: %w", s.Name, err)
		}
	}
	return nil
}

// Decode parses and validates a JSON campaign spec. Unknown fields are
// rejected: campaign files are written by hand, and a typo'd axis name
// must fail loudly instead of silently sweeping a default. So is anything
// but white space after the spec's object: a file holding two campaigns,
// or a campaign and junk, is not its first campaign.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("campaign: data after the campaign spec's JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a campaign spec from a file. Relative
// scenario-file references resolve against the spec file's directory.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		// Decode's errors already carry the "campaign" prefix; add only
		// the file path.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.baseDir = filepath.Dir(path)
	return s, nil
}

// Builder assembles a campaign Spec fluently:
//
//	c, err := campaign.NewBuilder("grid").
//		Scenario("GT", "BT").
//		Iterations(10, 30).
//		Seeds(1, 2, 3).
//		Scales(0.25).
//		Spec()
type Builder struct {
	spec Spec
}

// NewBuilder starts a campaign named name.
func NewBuilder(name string) *Builder {
	return &Builder{spec: Spec{Name: name}}
}

// Note sets the campaign's documentation note.
func (b *Builder) Note(note string) *Builder {
	b.spec.Note = note
	return b
}

// Scenario adds registered scenarios by name.
func (b *Builder) Scenario(names ...string) *Builder {
	for _, n := range names {
		b.spec.Scenarios = append(b.spec.Scenarios, ScenarioRef{Name: n})
	}
	return b
}

// ScenarioFile adds scenarios loaded from spec files.
func (b *Builder) ScenarioFile(paths ...string) *Builder {
	for _, p := range paths {
		b.spec.Scenarios = append(b.spec.Scenarios, ScenarioRef{File: p})
	}
	return b
}

// Iterations sets the measurement-budget axis.
func (b *Builder) Iterations(vals ...int) *Builder {
	b.spec.Axes.Iterations = append(b.spec.Axes.Iterations, vals...)
	return b
}

// Window sets the sliding-window axis (0 = cumulative aggregation).
func (b *Builder) Window(vals ...int) *Builder {
	b.spec.Axes.Window = append(b.spec.Axes.Window, vals...)
	return b
}

// RotateRoot sets the root-rotation axis.
func (b *Builder) RotateRoot(vals ...bool) *Builder {
	b.spec.Axes.RotateRoot = append(b.spec.Axes.RotateRoot, vals...)
	return b
}

// Seeds sets the seed axis.
func (b *Builder) Seeds(vals ...int64) *Builder {
	b.spec.Axes.Seed = append(b.spec.Axes.Seed, vals...)
	return b
}

// Scales sets the payload-scale axis (1 = the paper's 239 MB broadcast).
func (b *Builder) Scales(vals ...float64) *Builder {
	b.spec.Axes.Scale = append(b.spec.Axes.Scale, vals...)
	return b
}

// TopFractions sets the edge-filter axis: each value keeps only that
// fraction of the strongest measured edges before clustering (0 or 1
// keeps everything; see Axes.TopFraction).
func (b *Builder) TopFractions(vals ...float64) *Builder {
	b.spec.Axes.TopFraction = append(b.spec.Axes.TopFraction, vals...)
	return b
}

// Dynamics sets the dynamics-intensity axis (0 strips each scenario's
// timeline, 1 replays it as written; see Axes.Dynamics).
func (b *Builder) Dynamics(vals ...float64) *Builder {
	b.spec.Axes.Dynamics = append(b.spec.Axes.Dynamics, vals...)
	return b
}

// Backends sets the measurement-backend axis ("sim", "wire"; see
// Axes.Backend).
func (b *Builder) Backends(vals ...string) *Builder {
	b.spec.Axes.Backend = append(b.spec.Axes.Backend, vals...)
	return b
}

// Workers sets the per-run worker axis (execution policy only; see
// Axes.Workers).
func (b *Builder) Workers(vals ...int) *Builder {
	b.spec.Axes.Workers = append(b.spec.Axes.Workers, vals...)
	return b
}

// Err validates the campaign assembled so far.
func (b *Builder) Err() error { return b.spec.Validate() }

// Spec finalises and validates the assembled campaign. The returned spec
// is a copy: the builder can keep extending without aliasing it.
func (b *Builder) Spec() (*Spec, error) {
	if err := b.spec.Validate(); err != nil {
		return nil, err
	}
	return b.spec.Clone(), nil
}
