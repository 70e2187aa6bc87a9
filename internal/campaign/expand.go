package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/persist"
	"repro/internal/scenario"
	"repro/internal/substrate"
)

// Run is one expanded cell of a campaign grid: a resolved scenario spec
// (with its dynamics timeline already scaled to the cell's intensity)
// plus the option coordinates, and the content-addressed cache key that
// identifies its Result.
type Run struct {
	// Index is the cell's position in expansion order (0-based).
	Index int
	// Scenario is the display name of the scenario axis value (the
	// registry name or the file path as written in the campaign spec).
	Scenario string
	// Spec is the resolved scenario, dynamics already scaled.
	Spec *scenario.Spec
	// The option coordinates, one per ConfigAxes row (DynScale is the
	// dynamics intensity, Backend the canonical backend name). All but
	// Workers, which is execution policy (see Axes.Workers), enter Key.
	DynScale    float64
	Iterations  int
	Window      int
	RotateRoot  bool
	Seed        int64
	Scale       float64
	TopFraction float64
	Backend     string
	Workers     int
	// Key is the content hash addressing this cell's Result in the
	// campaign archive.
	Key string
}

// ConfigAxis is one option axis of a campaign, declared once: its
// canonical name (the key the campaign spec's "axes" object sweeps it
// under), the short key Run.Config renders it with and, built by newAxis,
// how many values a cell can take (count; an empty axis has its default),
// which values it admits (check), how a cell takes the i-th (set), how
// Spec.Clone copies them (copy) and how a cell's coordinate prints in
// Config and the aggregate (text).
type ConfigAxis struct {
	Name, Key string
	count     func(*Axes) int
	check     func(*Axes) error
	set       func(a *Axes, i int, r *Run)
	copy      func(*Axes)
	text      func(Run) string
}

// newAxis declares the axis listed at vals(a) with cell coordinate
// coord(r). def is what an empty axis contributes; admit returns the
// canonical value a listed one stands for (duplicates are found among
// these) and why it is refused ("" when it is not).
func newAxis[T comparable](name, key string, def T, admit func(T) (T, string),
	vals func(*Axes) *[]T, coord func(*Run) *T) ConfigAxis {
	return ConfigAxis{
		Name:  name,
		Key:   key,
		count: func(a *Axes) int { return max(len(*vals(a)), 1) },
		check: func(a *Axes) error {
			seen := make(map[T]bool)
			for _, v := range *vals(a) {
				c, why := admit(v)
				if why != "" {
					return fmt.Errorf("%s axis value %v %s", name, v, why)
				}
				if seen[c] {
					return fmt.Errorf("duplicate %s axis value %v", name, c)
				}
				seen[c] = true
			}
			return nil
		},
		set: func(a *Axes, i int, r *Run) {
			*coord(r) = def
			if vs := *vals(a); len(vs) > 0 {
				*coord(r), _ = admit(vs[i])
			}
		},
		copy: func(a *Axes) { *vals(a) = append([]T(nil), *vals(a)...) },
		text: func(r Run) string { return fmt.Sprint(*coord(&r)) },
	}
}

// ConfigAxes lists every option axis in expansion order, one row per
// field of Axes. Spec.Validate, Spec.Clone, Spec.Expand, Run.Config, the
// aggregate's columns and the archive's per-axis queries (marginal
// curves, their aliases, the Config-string lookup) are loops over it, so
// an axis added here is checked, expanded, rendered and queryable at
// once. Adding an axis takes an Axes field, a Builder method, a Run field,
// a row here and the Run.Options line that applies it; a result-relevant
// one also takes an optionsKey field, which is a keyVersion bump.
var ConfigAxes = []ConfigAxis{
	newAxis("dynamics", "dyn", 1, admitIf(func(v float64) bool { return v >= 0 }, "must be >= 0"),
		func(a *Axes) *[]float64 { return &a.Dynamics }, func(r *Run) *float64 { return &r.DynScale }),
	newAxis("iterations", "iters", core.DefaultOptions().Iterations,
		admitIf(func(v int) bool { return v >= 1 }, "must be >= 1"),
		func(a *Axes) *[]int { return &a.Iterations }, func(r *Run) *int { return &r.Iterations }),
	newAxis("window", "window", 0, admitIf(func(v int) bool { return v >= 0 }, "must be >= 0"),
		func(a *Axes) *[]int { return &a.Window }, func(r *Run) *int { return &r.Window }),
	newAxis("rotate_root", "rotate", false, admitAll[bool],
		func(a *Axes) *[]bool { return &a.RotateRoot }, func(r *Run) *bool { return &r.RotateRoot }),
	newAxis("seed", "seed", core.DefaultOptions().Seed, admitAll[int64],
		func(a *Axes) *[]int64 { return &a.Seed }, func(r *Run) *int64 { return &r.Seed }),
	newAxis("scale", "scale", 1, admitIf(func(v float64) bool { return v > 0 }, "must be positive"),
		func(a *Axes) *[]float64 { return &a.Scale }, func(r *Run) *float64 { return &r.Scale }),
	newAxis("top_fraction", "top", core.DefaultOptions().TopFraction,
		admitIf(func(v float64) bool { return v >= 0 && v <= 1 }, "out of [0,1]"),
		func(a *Axes) *[]float64 { return &a.TopFraction }, func(r *Run) *float64 { return &r.TopFraction }),
	newAxis("backend", "backend", "sim", knownBackend,
		func(a *Axes) *[]string { return &a.Backend }, func(r *Run) *string { return &r.Backend }),
	newAxis("workers", "workers", 1, admitIf(func(v int) bool { return v >= 1 }, "must be >= 1"),
		func(a *Axes) *[]int { return &a.Workers }, func(r *Run) *int { return &r.Workers }),
}

func admitAll[T any](v T) (T, string) { return v, "" }

// admitIf admits the finite values ok accepts; why says what ok wants.
func admitIf[T int | float64](ok func(T) bool, why string) func(T) (T, string) {
	return func(v T) (T, string) {
		switch f := float64(v); {
		case math.IsNaN(f) || math.IsInf(f, 0):
			return v, "must be finite"
		case !ok(v):
			return v, why
		}
		return v, ""
	}
}

// knownBackend admits a backend substrate.Check knows, under its
// canonical name ("" and "sim" are the same value).
func knownBackend(v string) (string, string) {
	b, err := substrate.Check(v, false)
	if err != nil {
		return b, fmt.Sprintf("is unknown (have %v)", substrate.Names())
	}
	return b, ""
}

// Config renders the cell's option coordinates compactly for manifests,
// logs and dry-run listings: "dyn=1 iters=3 window=0 rotate=false seed=1
// scale=0.2 top=0.5 backend=sim workers=1".
func (r Run) Config() string {
	var b strings.Builder
	for i, a := range ConfigAxes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", a.Key, a.text(r))
	}
	return b.String()
}

// Options materialises the cell's core options. campaignJobs is the
// campaign-level fan-out: with more than one campaign job the per-run
// worker count is forced to 1, so fan-out happens at exactly one level
// (the worker-budget discipline); in every case workers is at least 1.
func (r Run) Options(campaignJobs int) core.Options {
	opts := core.DefaultOptions().WithScale(r.Scale)
	opts.Iterations = r.Iterations
	opts.Window = r.Window
	opts.RotateRoot = r.RotateRoot
	opts.Seed = r.Seed
	opts.TopFraction = r.TopFraction
	// Grid cells are scored on their final NMI/Q; per-iteration
	// clustering would multiply the analysis cost of every cell without
	// changing the archived outcome.
	opts.ClusterEvery = 0
	opts.Backend = r.Backend
	opts.Workers = r.Workers
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if campaignJobs > 1 {
		opts.Workers = 1
	}
	return opts
}

// Expand resolves the campaign's scenarios and expands the cross-product
// of all axes into the ordered run list. The order is deterministic:
// scenarios outermost, then the axes in ConfigAxes order with the last
// changing fastest, each axis's values in declaration order. Expansion
// fails — rather than expanding a cell that cannot run — when a scenario
// does not resolve, a scaled timeline no longer validates, a cell's
// dynamics events target iterations beyond its budget, or a backend
// cannot replay the scenario's dynamics timeline.
func (s *Spec) Expand() ([]Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	specs := make([]*scenario.Spec, len(s.Scenarios))
	for i, ref := range s.Scenarios {
		sp, err := s.resolve(ref)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	cells := 1
	for _, a := range ConfigAxes {
		cells *= a.count(&s.Axes)
	}
	runs := make([]Run, 0, len(specs)*cells)
	for si, sc := range specs {
		name := s.Scenarios[si].String()
		// Dynamics and iterations are the outermost axes, so each timeline
		// is scaled, marshalled for the key and checked against each
		// budget once, not once per cell.
		var variant *scenario.Spec
		var variantJSON json.RawMessage
		checked := 0 // the budget variant was last checked against (0: none)
		for c := range cells {
			run := Run{Index: len(runs), Scenario: name}
			for i, rest := len(ConfigAxes)-1, c; i >= 0; i-- {
				n := ConfigAxes[i].count(&s.Axes)
				ConfigAxes[i].set(&s.Axes, rest%n, &run)
				rest /= n
			}
			var err error
			if c == 0 || run.DynScale != runs[len(runs)-1].DynScale {
				if variant, err = scaleTimeline(sc, run.DynScale); err != nil {
					return nil, fmt.Errorf("campaign %s: scenario %s at dynamics %g: %w", s.Name, name, run.DynScale, err)
				}
				if variantJSON, err = json.Marshal(variant); err != nil {
					return nil, fmt.Errorf("campaign %s: scenario %s: %w", s.Name, name, err)
				}
				checked = 0
			}
			if run.Iterations != checked {
				if err := variant.ValidateDynamicsFor(run.Iterations); err != nil {
					return nil, fmt.Errorf("campaign %s: scenario %s at %d iterations: %w", s.Name, name, run.Iterations, err)
				}
				checked = run.Iterations
			}
			if _, err := substrate.Check(run.Backend, len(variant.Dynamics) > 0); err != nil {
				return nil, fmt.Errorf("campaign %s: scenario %s has a dynamics timeline, which backend %q cannot replay (drop the backend or add dynamics=[0] to strip the timeline)",
					s.Name, name, run.Backend)
			}
			run.Spec = variant
			if run.Key, err = run.key(variantJSON); err != nil {
				return nil, fmt.Errorf("campaign %s: %s: %w", s.Name, name, err)
			}
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// resolve turns a scenario reference into a spec: registry lookup for
// names, persist.LoadSpec for files (relative paths resolve against the
// campaign spec's own directory when it was loaded from disk).
func (s *Spec) resolve(ref ScenarioRef) (*scenario.Spec, error) {
	if ref.Name != "" {
		sp, ok := scenario.Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("campaign %s: unknown scenario %q (have %v)", s.Name, ref.Name, scenario.Names())
		}
		return sp, nil
	}
	path := ref.File
	if !filepath.IsAbs(path) && s.baseDir != "" {
		path = filepath.Join(s.baseDir, path)
	}
	sp, err := persist.LoadSpec(path)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: scenario file %q: %w", s.Name, ref.File, err)
	}
	return sp, nil
}

// scaleTimeline returns the spec with its dynamics timeline scaled to
// intensity f: 1 is the timeline as written (the spec itself, unshared
// state is not needed — specs are read-only during execution), 0 strips
// it (the static base topology), and intermediate intensities attenuate
// the scalar disturbances — link-scale factors interpolate geometrically
// toward 1, because bandwidth contrast is a ratio (the same reasoning as
// the DriftSites generator), and burst sizes scale linearly. Link
// failures and churn are binary events: they replay unchanged at any
// positive intensity.
func scaleTimeline(sp *scenario.Spec, f float64) (*scenario.Spec, error) {
	if f == 1 || len(sp.Dynamics) == 0 {
		return sp, nil
	}
	v := sp.Clone()
	if f == 0 {
		v.Dynamics = nil
		return v, nil
	}
	for i := range v.Dynamics {
		e := &v.Dynamics[i]
		switch e.Kind {
		case dynamics.LinkScale:
			e.Param = math.Pow(e.Param, f)
		case dynamics.Burst:
			e.Param *= f
		}
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}
