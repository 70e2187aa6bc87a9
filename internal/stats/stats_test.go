package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{0, 2, 4, 6, 8})
	if s.N != 5 || s.Mean != 4 || s.Min != 0 || s.Max != 8 {
		t.Fatalf("basic stats wrong: %+v", s)
	}
	if s.Median != 4 {
		t.Fatalf("Median = %g, want 4", s.Median)
	}
	if s.Zeros != 1 {
		t.Fatalf("Zeros = %d, want 1", s.Zeros)
	}
	// Sample stddev of {0,2,4,6,8} = sqrt(10).
	if math.Abs(s.StdDev-math.Sqrt(10)) > 1e-12 {
		t.Fatalf("StdDev = %g, want sqrt(10)", s.StdDev)
	}
	if math.Abs(s.CoefficientOfVar-math.Sqrt(10)/4) > 1e-12 {
		t.Fatalf("CV = %g", s.CoefficientOfVar)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.StdDev != 0 || s.Mean != 7 || s.Median != 7 {
		t.Fatalf("singleton stats wrong: %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10, 20, 30}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 30}, {0.5, 15}, {0.25, 7.5}, {1.0 / 3, 10},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{-1, 0, 0.5, 1, 1.5, 2, 9.9, 10, 11}, 0, 10, 5)
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Fatalf("under/overflow = %d/%d, want 1/2", h.Underflow, h.Overflow)
	}
	// [0,2): 0, 0.5, 1, 1.5; [2,4): 2; [8,10): 9.9.
	if want := []int{4, 1, 0, 0, 1}; !slices.Equal(h.Counts, want) {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
	// (x-lo)/BinWidth rounds up to the bin count for this x just below
	// hi; it belongs in the last bin.
	h = NewHistogram([]float64{94.99999999999999}, 22.9, 95, 22)
	if h.Counts[21] != 1 || h.Overflow != 0 {
		t.Fatalf("x just below hi: last bin %d, overflow %d, want 1, 0", h.Counts[21], h.Overflow)
	}
}

func TestSeriesConvergedAt(t *testing.T) {
	s := &Series{Name: "BGTL"}
	for i, y := range []float64{0.3, 0.9, 1.0, 0.8, 1.0, 1.0} {
		s.Add(float64(i+1), y)
	}
	// Dips back below 1.0 at x=4, so convergence is at x=5.
	x, ok := s.ConvergedAt(1.0)
	if !ok || x != 5 {
		t.Fatalf("ConvergedAt = %g,%v, want 5,true", x, ok)
	}
	if _, ok := s.ConvergedAt(1.1); ok {
		t.Fatal("converged above the achievable maximum")
	}
	x, ok = s.ConvergedAt(0.2)
	if !ok || x != 1 {
		t.Fatalf("ConvergedAt(0.2) = %g, want 1", x)
	}
}

// Property: histogram conserves all observations and quantiles are
// monotone in q.
func TestStatsProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*20 - 5
		}
		h := NewHistogram(xs, 0, 10, 7)
		total := h.Underflow + h.Overflow
		for _, c := range h.Counts {
			total += c
		}
		if total != n {
			return false
		}
		s := Summarize(xs)
		if s.Min > s.Median || s.Median > s.Max || s.P25 > s.Median || s.Median > s.P75 {
			return false
		}
		return s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
