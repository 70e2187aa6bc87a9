// Package stats provides the small statistical toolkit the experiment
// harness uses: summary statistics, histograms (Fig. 5) and convergence
// series (Fig. 13).
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, StdDev     float64
	Min, Max         float64
	Median, P25, P75 float64
	Zeros            int // count of exactly-zero observations (Fig. 5 cares)
	CoefficientOfVar float64
}

// Summarize computes descriptive statistics. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
		if x == 0 {
			s.Zeros++
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		sq += (x - s.Mean) * (x - s.Mean)
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(sq / float64(len(xs)-1))
	}
	if s.Mean != 0 {
		s.CoefficientOfVar = s.StdDev / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the q-quantile (0<=q<=1) of an ascending-sorted sample
// using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi    float64
	BinWidth  float64
	Counts    []int
	Underflow int
	Overflow  int
}

// NewHistogram bins xs into `bins` equal-width bins over [lo, hi).
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic("stats: bad histogram bounds")
	}
	h := &Histogram{Lo: lo, Hi: hi, BinWidth: (hi - lo) / float64(bins), Counts: make([]int, bins)}
	for _, x := range xs {
		switch {
		case x < lo:
			h.Underflow++
		case x >= hi:
			h.Overflow++
		default:
			// (x-lo)/BinWidth can round up to bins for x just below hi.
			h.Counts[min(int((x-lo)/h.BinWidth), bins-1)]++
		}
	}
	return h
}

// Series is a named (x, y) sequence, e.g. NMI per iteration for one
// dataset (one curve of Fig. 13).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// ConvergedAt returns the first x whose y reaches target and never drops
// below it afterwards, and whether such a point exists. This is the
// "iterations needed for perfect accuracy" statistic of Fig. 13.
func (s *Series) ConvergedAt(target float64) (float64, bool) {
	for i := range s.Y {
		ok := true
		for j := i; j < len(s.Y); j++ {
			if s.Y[j] < target {
				ok = false
				break
			}
		}
		if ok {
			return s.X[i], true
		}
	}
	return 0, false
}
