package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of
// vals with the method of Python's statistics.quantiles(n=4) (exclusive),
// the one the driver applies to a metric's runs. Fewer than two values
// have no spread: all three are the single value (0 for none).
func quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func summarize(unit string, vals []float64) metric {
	q1, med, q3 := quartiles(vals)
	return metric{Unit: unit, Value: med, Q1: q1, Q3: q3, N: len(vals)}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stolenSeconds is the CPU time the hypervisor has so far given to other
// guests while this one had work to run, summed over the guest's CPUs:
// the steal column of /proc/stat's first line, which counts in 1/100 s.
// It reads 0 where the kernel does not report steal.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(data))
}

func parseSteal(stat string) float64 {
	line, _, _ := strings.Cut(stat, "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// guestSeconds runs fn and returns for how long the guest ran meanwhile:
// elapsed wall-clock time minus the time stolen from it.
//
// The sandbox is a two-vCPU guest of a shared host that, for a minute
// every few minutes, takes 15-30% of its CPU time away. Measured over
// 600 identical tomo-bgtl64 reps, a rep's elapsed time follows the
// steal it met (0.71 s at none, 0.90 s at 10%, 1.25 s at 20% of the
// machine's CPU time) and elapsed minus stolen does not (0.71-0.75 s
// throughout): between ten 15 s runs the median elapsed time spread
// 38-56% (interquartile range over median), the median guest time 8%.
// Subtracting all of the steal is exact only while one thread is
// runnable, which is how every gated workload is built. Steal counts in
// ticks of 10 ms, so anything shorter than two of them (the set-up of
// the tomo-* workloads, the toy sizes of bench_test.go) is returned as
// elapsed time: a tick would erase it.
func guestSeconds(fn func() error) (float64, error) {
	stolen := stolenSeconds()
	start := time.Now()
	err := fn()
	elapsed := time.Since(start).Seconds()
	if elapsed < 0.02 {
		return elapsed, err
	}
	return max(elapsed-(stolenSeconds()-stolen), 0), err
}

// sample is the cost of one repetition; wall is in guest seconds.
type sample struct {
	wall, cpu, allocs, allocMB float64
}

// measure runs fn once and returns what it cost the process. The heap
// is collected first, outside the timed region, so a repetition does not
// pay for its predecessor's garbage.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	wall, err := guestSeconds(fn)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	return sample{
		wall:    wall,
		cpu:     cpu,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}, err
}

// timeN returns the median wall time of n calls of fn, in seconds.
func timeN(n int, fn func() error) (float64, error) {
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		vals = append(vals, time.Since(start).Seconds())
	}
	return median(vals), nil
}
