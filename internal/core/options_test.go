package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bittorrent"
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
		{"TopFraction", func(o *Options) { o.TopFraction = math.NaN() }},
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

// TestWithScaleSaturates: a scale whose payload does not fit the swarm is
// rejected by the broadcast on either backend, naming FileBytes, instead
// of wrapping to a one-fragment broadcast or a wrapped piece index, or of
// the wire backend allocating the payload's piece bitmaps.
func TestWithScaleSaturates(t *testing.T) {
	for _, tc := range []struct {
		scale     float64
		fileBytes int // 0: whatever the product is
	}{
		{1e6, 0},                  // bttomo -scale 1e6: 1.5×10¹⁰ fragments
		{1e11, math.MaxInt},       // past the int range
		{math.NaN(), math.MaxInt}, // no payload at all
	} {
		t.Run(fmt.Sprint(tc.scale), func(t *testing.T) {
			opts := DefaultOptions().WithIterations(1).WithScale(tc.scale)
			if tc.fileBytes != 0 && opts.BT.FileBytes != tc.fileBytes {
				t.Fatalf("FileBytes = %d, want %d", opts.BT.FileBytes, tc.fileBytes)
			}
			for _, backend := range []string{"sim", "wire"} {
				net, hosts, truth := smallDumbbell()
				_, err := Run(net, hosts, truth, opts.WithBackend(backend))
				if err == nil || !strings.Contains(err.Error(), "FileBytes") || !strings.Contains(err.Error(), "a swarm can index") {
					t.Fatalf("scale %g on %s: err = %v, want FileBytes named and the int32 bound", tc.scale, backend, err)
				}
			}
		})
	}
	if got := DefaultOptions().WithScale(1e-9).BT.FileBytes; got != bittorrent.DefaultFragmentSize {
		t.Fatalf("a tiny scale gives FileBytes %d, want one fragment", got)
	}
}
