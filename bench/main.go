// Command bench is the repository's benchmark: one process runs one
// named workload, prints every metric by name with its unit, verifies
// the outputs against bench/expected.json, and ends with the one-line
// JSON object the driver reads. See README.md in this directory.
//
//	sh bench/run.sh --workload tomo-bgtl64 --seed 1 --seconds 12 --trace 0
//	sh bench/run.sh --workload analyze-1k --trace 1     # per-layer metrics + span JSONL
//	sh bench/run.sh -set A.json                         # every workload, one process each
//	sh bench/run.sh -compare A.json B.json
//	sh bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// config is what a workload is built from.
type config struct {
	seed    int64
	nproc   int    // load-generating goroutines / connections never exceed this
	workDir string // scratch directory for archives, removed when the run ends
	outDir  string // where the traced run leaves its span JSONL and CPU profile
	toy     bool   // bench_test.go sizes: same code paths, seconds instead of minutes
}

// runner is one workload. The harness times rep and nothing else;
// verification, bookkeeping and clean-up happen in check.
type runner interface {
	// setup builds every input from the seed. It is called many times
	// in a row and the last call's state is the one measured.
	setup() error
	// rep executes one repetition of the unit of work. With a non-nil
	// tracer it records a span around each call into a layer.
	rep(tr *tracer, parent *span) error
	// check verifies the last rep's output and returns the operations
	// it attempted and how many of them failed.
	check(tr *tracer, parent *span) (attempted, failed int, err error)
	// layers drives each layer's public functions directly and fills
	// the workload's per-layer metrics (traced run only).
	layers(tr *tracer, lv layerValues) error
	close()
}

func newRunner(name string, cfg config) (runner, error) {
	switch name {
	case wBGTL, wFatTree, wDrift:
		return newTomo(name, cfg), nil
	case wAnalyze:
		return newAnalyze(cfg), nil
	case wServe:
		return newServeRunner(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// Set-up is timed in at least minSetupBatches batches of setupBatch
// each, until setupWindow has passed.
const (
	setupWindow     = time.Second
	setupBatch      = 200 * time.Millisecond
	minSetupBatches = 3
)

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	spanFile string // traced run: where the span JSONL was written
}

// repLoop repeats rep+check until budget seconds of wall-clock have
// passed, at least minReps times, and returns the cost of each rep.
// tracerFor picks the tracer of the i-th repetition (1-based); nil
// leaves every repetition untraced.
func repLoop(r runner, budget float64, minReps int, res *result, tracerFor func(i int) *tracer) ([]sample, error) {
	var samples []sample
	start := time.Now()
	for i := 1; len(samples) < minReps || time.Since(start).Seconds() < budget; i++ {
		var tr *tracer
		if tracerFor != nil {
			tr = tracerFor(i)
		}
		root := tr.start(nil, "rep", i)
		s, err := measure(func() error { return r.rep(tr, root) })
		if err != nil {
			return nil, err
		}
		attempted, failed, err := r.check(tr, root)
		root.end()
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
		samples = append(samples, s)
	}
	return samples, nil
}

func column(samples []sample, pick func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = pick(s)
	}
	return out
}

// runWorkload is the whole life of one workload process: set-up, a
// discarded warm-up repetition, then timed repetitions for the given
// number of seconds. The untraced run yields the end-to-end metrics.
// The traced run yields the per-layer metrics: two thirds of its time
// alternate plain and span-recording repetitions (their difference is
// the tracing overhead), the last third runs under the CPU profiler.
func runWorkload(name string, cfg config, seconds float64, traced bool) (*result, error) {
	r, err := newRunner(name, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &result{Workload: name, Traced: traced}

	// Set-up is repeated so that setup_s is a median over batches: each
	// batch repeats set-up for setupBatch of wall-clock and yields its
	// guest seconds per set-up. A batch, not a single set-up, is what gets
	// timed because steal is counted in 10 ms ticks: one tick is a fifth of
	// a serve set-up and a hundred 64-host Compiles.
	window, batch := setupWindow, setupBatch
	if cfg.toy {
		window, batch = 0, 0
	}
	var setupTimes []float64
	for begin := time.Now(); len(setupTimes) < minSetupBatches || time.Since(begin) < window; {
		n := 0
		took, err := guestSeconds(func() error {
			for start := time.Now(); n == 0 || time.Since(start) < batch; n++ {
				if err := r.setup(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setupTimes = append(setupTimes, took/float64(n))
	}

	// Warm-up: caches fill, the heap grows to its working size, lazy
	// initialisation finishes. Its output is verified like any other. Its
	// time is discarded as a repetition and counted as set-up: a cache
	// that makes the timed repetitions cheap is paid for here, on first
	// use, or in setup, and setup_s shows both.
	warm, err := repLoop(r, 0, 1, res, nil)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	setup := summarize("s", setupTimes)
	fmt.Printf("# setup_s = set-up %.6g s (median of %d batches) + warm-up repetition %.6g s\n", setup.Value, setup.N, warm[0].wall)
	setup.Value += warm[0].wall
	setup.Q1 += warm[0].wall
	setup.Q3 += warm[0].wall

	if !traced {
		samples, err := repLoop(r, seconds, 1, res, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics = map[string]metric{
			"setup_s":      setup,
			"run_wall_s":   summarize("s", column(samples, func(s sample) float64 { return s.wall })),
			"run_allocs":   summarize("count", column(samples, func(s sample) float64 { return s.allocs })),
			"run_alloc_mb": summarize("MB", column(samples, func(s sample) float64 { return s.allocMB })),
			"peak_rss_mb":  {Unit: "MB", Value: rss, Q1: rss, Q3: rss, N: 1},
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	lv := layerValues{}
	tr := newTracer()
	paired, err := repLoop(r, seconds*2/3, 2, res, func(i int) *tracer {
		if i%2 == 0 {
			return tr
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s traced reps: %w", name, err)
	}
	var plain, withSpans, cpu []float64
	for i, s := range paired {
		if i%2 == 0 {
			plain = append(plain, s.wall)
			cpu = append(cpu, s.cpu)
		} else {
			withSpans = append(withSpans, s.wall)
		}
	}
	lv["run_cpu_s"] = median(cpu)
	lv["telemetry.overhead_pct"] = (median(withSpans) - median(plain)) / median(plain) * 100

	profile := filepath.Join(cfg.outDir, "cpu-"+name+".pprof")
	if err := profiled(profile, func() error {
		_, err := repLoop(r, seconds/3, 1, res, nil)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s profiled reps: %w", name, err)
	}
	if err := cpuShares(profile, lv); err != nil {
		fmt.Printf("# cpu_share.* absent: %v\n", err)
	}

	if err := r.layers(tr, lv); err != nil {
		return nil, fmt.Errorf("%s layers: %w", name, err)
	}
	res.spanFile = filepath.Join(cfg.outDir, "trace-"+name+".jsonl")
	if err := tr.writeJSONL(res.spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %s (%d spans)\n", res.spanFile, len(tr.spans))
	if res.Metrics, err = lv.finish(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// profiled runs fn under the runtime CPU profiler, writing to path.
func profiled(path string, fn func() error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return f.Close()
}

// printResult prints one line per metric and, last, the driver's JSON.
func printResult(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if m.N > 1 {
			fmt.Printf("%-32s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// options are the command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out, work string
	set       string
	compare   bool
	selfcheck bool
	benchJSON bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds of timed repetitions")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, CPU shares and span JSONL instead of end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "also write the run (with machine context) to this JSON file")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for scratch archives, CPU profiles and span files")
	flag.StringVar(&o.set, "set", "", "run every workload once, each in its own process, and write the set to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two set files: bench -compare A.json B.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two full sets and fail if any end-to-end pair disagrees beyond its bound")
	flag.BoolVar(&o.benchJSON, "benchmark-json", false, "print BENCHMARK.json as generated from the catalog")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	switch {
	case o.benchJSON:
		doc, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two set files, got %d arguments", len(args))
		}
		return compareFiles(args[0], args[1], os.Stdout)
	case o.selfcheck:
		return selfCheck(o.seed, o.seconds, o.work)
	case o.set != "":
		return runSet(o.set, o.seed, o.seconds, o.work)
	}
	if o.workload == "" {
		return fmt.Errorf("no -workload given (have %v)", workloadNames())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	// A private scratch directory per process, removed at exit, so
	// concurrent or crashed runs never see each other's archives.
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := config{seed: o.seed, nproc: runtime.NumCPU(), workDir: scratch, outDir: o.work}
	res, err := runWorkload(o.workload, cfg, o.seconds, o.trace == 1)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeSet(o.out, &setFile{Context: machineContext(o.seed), Results: []*result{res}}); err != nil {
			return err
		}
	}
	return printResult(res)
}
