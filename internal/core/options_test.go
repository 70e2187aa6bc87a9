package core

import (
	"strings"
	"testing"
)

// Options.Validate must reject every misconfiguration with an error that
// names the offending field, and accept the defaults and their supported
// variations.
func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		DefaultOptions(),
		func() Options { o := DefaultOptions(); o.Workers = 8; return o }(),
		func() Options { o := DefaultOptions(); o.Window = 5; o.TopFraction = 0.5; return o }(),
		func() Options { o := DefaultOptions(); o.TopFraction = 1; o.ClusterEvery = 0; return o }(),
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		wantSub string
		mutate  func(*Options)
	}{
		{"iteration", func(o *Options) { o.Iterations = 0 }},
		{"iteration", func(o *Options) { o.Iterations = -3 }},
		{"TopFraction", func(o *Options) { o.TopFraction = -0.1 }},
		{"TopFraction", func(o *Options) { o.TopFraction = 1.5 }},
		{"ClusterEvery", func(o *Options) { o.ClusterEvery = -1 }},
		{"Window", func(o *Options) { o.Window = -2 }},
		{"Workers", func(o *Options) { o.Workers = -1 }},
	}
	for _, c := range invalid {
		o := DefaultOptions()
		c.mutate(&o)
		err := o.Validate()
		if err == nil {
			t.Errorf("misconfiguration expecting %q accepted", c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("error %q does not name %q", err, c.wantSub)
		}
	}
}

// Run must refuse invalid options via Validate before measuring.
func TestRunRejectsInvalidOptionsViaValidate(t *testing.T) {
	net, hosts, truth := smallDumbbell()
	opts := testOptions(1)
	opts.Window = -1
	if _, err := Run(net, hosts, truth, opts); err == nil || !strings.Contains(err.Error(), "Window") {
		t.Fatalf("Run did not surface the Validate error, got %v", err)
	}
	opts = testOptions(1)
	opts.ClusterEvery = -1
	if _, err := Run(net, hosts, truth, opts); err == nil || !strings.Contains(err.Error(), "ClusterEvery") {
		t.Fatalf("Run did not surface the ClusterEvery error, got %v", err)
	}
}
