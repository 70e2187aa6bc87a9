// Command experiments regenerates every table and figure of the paper's
// evaluation (experiments.Names is the index): the tables on stdout, and
// under -out the CSV series, the SVG figures (Fig. 5's histogram, Fig.
// 13's NMI curves) and the DOT/SVG layouts. Sweeping scenario spec files
// is a campaign: list them in a campaign spec and `campaign run` it.
//
// Usage:
//
//	experiments                  # full paper scale, all experiments
//	experiments -scale 0.1       # 10% payload for a quick pass
//	experiments -run datasets    # a single experiment
//	experiments -run drift -workers 4  # E17, each run on 4 workers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment to run: all, "+strings.Join(experiments.Names, ", "))
		scale   = flag.Float64("scale", 1.0, "broadcast payload scale (1.0 = the paper's 239 MB)")
		iters   = flag.Int("iterations", 0, "override iteration counts (0 = paper values)")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "results", "directory for CSV/DOT/SVG artifacts (empty to skip)")
		workers = flag.Int("workers", 0, "each run's measurement workers (0 means 1; results are identical for any count)")
	)
	flag.Parse()

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
	case !(*scale > 0):
		err = fmt.Errorf("-scale must be positive, have %g", *scale)
	case *iters < 0:
		err = fmt.Errorf("-iterations must be 0 (paper values) or positive, have %d", *iters)
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
