// Command experiments regenerates every table and figure of the paper's
// evaluation (experiments.Names is the index) and writes CSV series and
// DOT/SVG layout figures under -out.
//
// Usage:
//
//	experiments                 # full paper scale, all experiments
//	experiments -scale 0.1      # 10% payload for a quick pass
//	experiments -run datasets   # a single experiment
//	experiments -experiment drift   # alias for -run: the E17 dynamics sweep
//	experiments -specs a.json,b.json -workers 4  # sweep scenario specs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/persist"
	"repro/internal/scenario"
)

func main() {
	var (
		run = flag.String("run", "all", "experiment to run: all, "+strings.Join(experiments.Names, ", "))
		// -experiment is an alias for -run kept for discoverability
		// (`experiments -experiment drift`).
		experiment = flag.String("experiment", "", "alias for -run")
		scale      = flag.Float64("scale", 1.0, "broadcast payload scale (1.0 = the paper's 239 MB)")
		iters      = flag.Int("iterations", 0, "override iteration counts (0 = paper values)")
		seed       = flag.Int64("seed", 1, "random seed")
		out        = flag.String("out", "results", "directory for CSV/DOT/SVG artifacts (empty to skip)")
		workers    = flag.Int("workers", 0, "workers for measurements, dataset sweeps and the experiment fan-out (0 means 1; results are identical for any count)")
		specs      = flag.String("specs", "", "comma-separated scenario spec JSON files: sweep them instead of the paper experiments")
	)
	flag.Parse()
	if *experiment != "" {
		if *run != "all" && *run != *experiment {
			fmt.Fprintf(os.Stderr, "experiments: -run %s conflicts with -experiment %s; pass one\n", *run, *experiment)
			os.Exit(1)
		}
		*run = *experiment
	}

	r := experiments.New(experiments.Config{
		Scale:      *scale,
		Iterations: *iters,
		Seed:       *seed,
		Out:        os.Stdout,
		DataDir:    *out,
		Workers:    *workers,
	})

	start := time.Now()
	var err error
	switch {
	case *specs != "":
		err = sweepSpecFiles(r, strings.Split(*specs, ","))
	case *run == "all":
		err = r.RunAll()
	default:
		err = r.Run(*run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("done in %.1fs", time.Since(start).Seconds())
	if *out != "" {
		fmt.Printf("; artifacts in %s/", *out)
	}
	fmt.Println()
}

// sweepSpecFiles loads every spec file and runs the scenario sweep.
func sweepSpecFiles(r *experiments.Runner, paths []string) error {
	var loaded []*scenario.Spec
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		s, err := persist.LoadSpec(p)
		if err != nil {
			return err
		}
		loaded = append(loaded, s)
	}
	_, err := r.SweepSpecs(loaded)
	return err
}
