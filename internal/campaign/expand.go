package campaign

import (
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
	// DynScale is the dynamics-intensity coordinate.
	DynScale float64
	// Iterations, Window, RotateRoot, Seed, Scale and TopFraction are the
	// result-relevant option coordinates.
	Iterations  int
	Window      int
	RotateRoot  bool
	Seed        int64
	Scale       float64
	TopFraction float64
	// Backend is the canonical measurement-backend coordinate ("sim",
	// "wire"); result-relevant, so it enters Key.
	Backend string
	// Workers is the requested per-run worker count — execution policy,
	// excluded from Key (see Axes.Workers).
	Workers int
	// Key is the content hash addressing this cell's Result in the
	// campaign archive.
	Key string
}

// ConfigAxis is one option coordinate of a grid cell: the canonical axis
// name (the key the campaign spec's "axes" object sweeps it under) and
// the short key Run.Config renders it with.
type ConfigAxis struct {
	Name, Key string
	value     func(Run) any
}

// ConfigAxes lists every option coordinate in expansion order. It is the
// one table Run.Config and the archive's per-axis queries (marginal
// curves, their aliases, the Config-string lookup) derive from, so an
// axis added here is rendered and queryable at once — the backend axis
// once reached the Config string and the content key but not the
// marginals, which answered 404 for it.
var ConfigAxes = []ConfigAxis{
	{"dynamics", "dyn", func(r Run) any { return r.DynScale }},
	{"iterations", "iters", func(r Run) any { return r.Iterations }},
	{"window", "window", func(r Run) any { return r.Window }},
	{"rotate_root", "rotate", func(r Run) any { return r.RotateRoot }},
	{"seed", "seed", func(r Run) any { return r.Seed }},
	{"scale", "scale", func(r Run) any { return r.Scale }},
	{"top_fraction", "top", func(r Run) any { return r.TopFraction }},
	{"backend", "backend", func(r Run) any { return r.Backend }},
	{"workers", "workers", func(r Run) any { return r.Workers }},
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
		fmt.Fprintf(&b, "%s=%v", a.Key, a.value(r))
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
	opts.DiscardBroadcasts = true
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
// scenarios outermost, then dynamics, iterations, window, rotate-root,
// seed, scale, top-fraction, backend, workers, each axis in declaration
// order. Expansion fails — rather than expanding a cell that cannot run —
// when a scenario does not resolve, a scaled timeline no longer
// validates, a cell's dynamics events target iterations beyond its
// budget, or a backend cannot replay the scenario's dynamics timeline.
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
	def := core.DefaultOptions()
	iters := orDefaultInts(s.Axes.Iterations, def.Iterations)
	windows := orDefaultInts(s.Axes.Window, 0)
	rotates := s.Axes.RotateRoot
	if len(rotates) == 0 {
		rotates = []bool{false}
	}
	seeds := s.Axes.Seed
	if len(seeds) == 0 {
		seeds = []int64{def.Seed}
	}
	scales := orDefaultFloats(s.Axes.Scale, 1)
	topFracs := orDefaultFloats(s.Axes.TopFraction, def.TopFraction)
	dyns := orDefaultFloats(s.Axes.Dynamics, 1)
	backends := s.Axes.Backend
	if len(backends) == 0 {
		backends = []string{"sim"}
	}
	workers := orDefaultInts(s.Axes.Workers, 1)

	var runs []Run
	for si, sc := range specs {
		name := s.Scenarios[si].String()
		for _, dyn := range dyns {
			variant, err := scaleTimeline(sc, dyn)
			if err != nil {
				return nil, fmt.Errorf("campaign %s: scenario %s at dynamics %g: %w", s.Name, name, dyn, err)
			}
			variantJSON, err := canonicalSpec(variant)
			if err != nil {
				return nil, fmt.Errorf("campaign %s: scenario %s: %w", s.Name, name, err)
			}
			for _, it := range iters {
				if err := variant.ValidateDynamicsFor(it); err != nil {
					return nil, fmt.Errorf("campaign %s: scenario %s at %d iterations: %w", s.Name, name, it, err)
				}
				for _, win := range windows {
					for _, rot := range rotates {
						for _, seed := range seeds {
							for _, scale := range scales {
								for _, top := range topFracs {
									for _, backend := range backends {
										backend = substrate.Canonical(backend)
										if caps, _ := substrate.Describe(backend); len(variant.Dynamics) > 0 && !caps.Dynamics {
											return nil, fmt.Errorf("campaign %s: scenario %s has a dynamics timeline, which backend %q cannot replay (drop the backend or add dynamics=[0] to strip the timeline)",
												s.Name, name, backend)
										}
										for _, wk := range workers {
											run := Run{
												Index:       len(runs),
												Scenario:    name,
												Spec:        variant,
												DynScale:    dyn,
												Iterations:  it,
												Window:      win,
												RotateRoot:  rot,
												Seed:        seed,
												Scale:       scale,
												TopFraction: top,
												Backend:     backend,
												Workers:     wk,
											}
											key, err := runKey(variantJSON, optionsKey{
												Iterations:   it,
												Window:       win,
												RotateRoot:   rot,
												Seed:         seed,
												TopFraction:  canonTopFraction(top),
												FileBytes:    def.WithScale(scale).BT.FileBytes,
												FragmentSize: def.BT.FragmentSize,
												Backend:      backend,
											})
											if err != nil {
												return nil, fmt.Errorf("campaign %s: %s: %w", s.Name, name, err)
											}
											run.Key = key
											runs = append(runs, run)
										}
									}
								}
							}
						}
					}
				}
			}
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

func orDefaultInts(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}

func orDefaultFloats(vals []float64, def float64) []float64 {
	if len(vals) == 0 {
		return []float64{def}
	}
	return vals
}
