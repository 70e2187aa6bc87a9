package core

// Fluent option derivation: each With* method returns a modified copy,
// so a configuration reads as one expression from DefaultOptions() —
//
//	opts := core.DefaultOptions().WithWorkers(4).WithIterations(10)
//
// — and never mutates a shared value. Only the axes callers commonly
// override get a method; everything else stays a plain field set, which
// composes with the fluent chain (the chain produces a value).

import "math"

// WithWorkers returns a copy of o with the measurement fanned out over
// n workers (see Options.Workers for the bit-identity contract; any
// n >= 1 produces identical results, only wall-clock changes).
func (o Options) WithWorkers(n int) Options {
	o.Workers = n
	return o
}

// WithIterations returns a copy of o with the measurement budget set to
// n broadcasts (the paper uses 30–36).
func (o Options) WithIterations(n int) Options {
	o.Iterations = n
	return o
}

// WithSeed returns a copy of o with the RNG seed set. A fixed seed
// makes the whole run deterministic.
func (o Options) WithSeed(seed int64) Options {
	o.Seed = seed
	return o
}

// WithBackend returns a copy of o measuring through the named substrate
// ("sim" or "wire"; see Options.Backend for what each supports).
func (o Options) WithBackend(name string) Options {
	o.Backend = name
	return o
}

// WithScale returns a copy of o broadcasting f times o's payload, floored
// at one fragment (1 = unchanged; the paper's 239 MB at the default) —
// the knob that turns a full measurement into a cheap smoke cell. It is
// the one payload-scale rule: campaign scale axes, the experiment
// harness and every CLI -scale flag go through it, and campaign content
// keys hash the FileBytes it resolves, not f. A payload past the int range
// saturates at math.MaxInt instead of wrapping, so the broadcast rejects it
// rather than measuring one fragment.
func (o Options) WithScale(f float64) Options {
	if b := float64(o.BT.FileBytes) * f; b < math.MaxInt {
		o.BT.FileBytes = int(b)
	} else {
		o.BT.FileBytes = math.MaxInt
	}
	if o.BT.FileBytes < o.BT.FragmentSize {
		o.BT.FileBytes = o.BT.FragmentSize
	}
	return o
}
