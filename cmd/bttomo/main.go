// Command bttomo runs BitTorrent bandwidth tomography on a registered
// dataset or on a declarative scenario spec, and prints the discovered
// logical clusters, their modularity, and the NMI against the ground
// truth.
//
// Usage:
//
//	bttomo -dataset GT -iterations 10 -scale 0.25 -seed 7 -fig13
//	bttomo -spec myscenario.json -workers 4   # run a JSON scenario spec
//	bttomo -spec drift.json -dynamics=false   # ignore the spec's Dynamics timeline
//	bttomo -list                              # show the scenario registry
//	bttomo -dataset B -save b.json        # archive the measurement graph
//	bttomo -load b.json                   # re-cluster an archived graph
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"

	"repro"
	"repro/internal/cluster"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	var (
		dataset    = flag.String("dataset", "GT", "registered dataset or scenario: "+strings.Join(repro.Datasets(), ", "))
		spec       = flag.String("spec", "", "run a declarative scenario spec from this JSON file instead of -dataset")
		dynamics   = flag.Bool("dynamics", true, "replay the scenario's Dynamics timeline (false measures the static base topology)")
		list       = flag.Bool("list", false, "print the scenario registry (built-ins + registered specs) and exit")
		iterations = flag.Int("iterations", 10, "number of BitTorrent broadcast iterations")
		scale      = flag.Float64("scale", 1.0, "broadcast payload scale (1.0 = the paper's 239 MB)")
		seed       = flag.Int64("seed", 1, "random seed")
		rotate     = flag.Bool("rotate-root", false, "rotate the broadcast root across iterations")
		workers    = flag.Int("workers", 1, "measurement workers (results are identical for any count)")
		backend    = flag.String("backend", "", "measurement backend: "+strings.Join(repro.Backends(), ", ")+" (default sim; wire measures real loopback TCP swarms)")
		fig13      = flag.Bool("fig13", false, "print the per-iteration NMI convergence series")
		save       = flag.String("save", "", "write the aggregated measurement graph to this JSON file")
		load       = flag.String("load", "", "skip measurement: cluster an archived measurement graph")
	)
	flag.Parse()

	err := func() error {
		// The three modes are mutually exclusive; refuse ambiguous
		// combinations instead of silently preferring one.
		if *spec != "" && (*list || *load != "") {
			return fmt.Errorf("-spec cannot be combined with -list or -load")
		}
		if *list && *load != "" {
			return fmt.Errorf("-list cannot be combined with -load")
		}
		switch {
		case *list:
			return listRegistry(os.Stdout)
		case *load != "":
			return runArchived(*load, *seed)
		default:
			d, err := buildDataset(*dataset, *spec)
			if err != nil {
				return err
			}
			if !*dynamics {
				d.Timeline = nil
			}
			return run(d, *backend, *iterations, *scale, *seed, *workers, *rotate, *fig13, *save)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bttomo:", err)
		os.Exit(1)
	}
}

// buildDataset compiles either a spec file or a registered scenario name.
func buildDataset(dataset, specPath string) (*repro.Dataset, error) {
	if specPath == "" {
		return repro.NewDataset(dataset)
	}
	s, err := repro.LoadSpec(specPath)
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

// listRegistry prints every registered scenario with its host count and
// ground-truth cluster count.
func listRegistry(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tHOSTS\tTRUTH CLUSTERS\tNOTE")
	for _, name := range repro.Datasets() {
		s, ok := scenario.Lookup(name)
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", s.Name, s.NumHosts(), len(s.Clusters()), s.Note)
	}
	return tw.Flush()
}

// runArchived clusters a previously saved measurement graph without
// re-measuring.
func runArchived(path string, seed int64) error {
	g, err := persist.LoadGraph(path)
	if err != nil {
		return err
	}
	res := cluster.Louvain(g, rand.New(rand.NewSource(seed)))
	fmt.Printf("archived measurement %s: %d nodes, %d edges\n", path, g.N(), g.EdgeCount())
	fmt.Printf("clustering: %d clusters, modularity Q=%.3f\n\n", res.Partition.NumClusters(), res.Q)
	for ci, members := range res.Partition.Clusters() {
		names := make([]string, 0, len(members))
		for _, v := range members {
			names = append(names, g.Label(v))
		}
		fmt.Printf("cluster %d (%d nodes): %s\n", ci, len(members), strings.Join(names, " "))
	}
	return nil
}

func run(d *repro.Dataset, backend string, iterations int, scale float64, seed int64, workers int, rotate, fig13 bool, save string) error {
	opts := repro.DefaultOptions()
	opts.Iterations = iterations
	opts.Seed = seed
	opts.RotateRoot = rotate
	opts.Workers = workers
	opts.Backend = backend
	if scale <= 0 {
		return fmt.Errorf("-scale must be positive, have %g", scale)
	}
	opts = opts.WithScale(scale)

	fmt.Printf("dataset %s: %d hosts, ground truth: %s\n", d.Name, d.N(), d.TruthNote)
	pool := "1 worker"
	if workers > 1 {
		pool = fmt.Sprintf("%d workers", workers)
	}
	if backend != "" && backend != "sim" {
		pool = backend + " backend, " + pool
	}
	fmt.Printf("measuring: %d iterations x %d fragments of %d bytes (%s)\n",
		opts.Iterations, opts.BT.NumFragments(), opts.BT.FragmentSize, pool)
	if n := d.Timeline.Len(); n > 0 {
		fmt.Printf("dynamics: %d scripted events replayed per iteration (link drift, failures, churn, bursts)\n", n)
	}
	fmt.Println()

	res, err := repro.Run(d, opts)
	if err != nil {
		return err
	}

	fmt.Printf("measurement phase: %.1f simulated seconds total (%.1f s/broadcast)\n",
		res.TotalMeasurementTime, res.TotalMeasurementTime/float64(opts.Iterations))
	fmt.Printf("clustering: %d clusters, modularity Q=%.3f, NMI vs truth=%.3f\n\n",
		res.Partition.NumClusters(), res.Q, res.NMI)

	for ci, members := range res.Partition.Clusters() {
		names := make([]string, 0, len(members))
		for _, v := range members {
			names = append(names, d.HostName(v))
		}
		fmt.Printf("cluster %d (%d nodes): %s\n", ci, len(members), strings.Join(names, " "))
	}
	for _, b := range repro.Bottlenecks(res) {
		fmt.Println("bottleneck:", b)
	}
	fmt.Println()

	if save != "" {
		if err := persist.SaveGraph(save, res.Graph); err != nil {
			return err
		}
		fmt.Printf("measurement graph saved to %s\n\n", save)
	}

	if fig13 {
		t := &report.Table{
			Title:  "NMI convergence (Fig. 13 series)",
			Header: []string{"iteration", "NMI", "clusters", "Q"},
		}
		for _, rec := range res.Iterations {
			if rec.Clustered {
				t.AddRow(rec.Iteration, rec.NMI, rec.Partition.NumClusters(), rec.Q)
			}
		}
		if err := t.Write(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
