// Command topoviz measures a dataset with BitTorrent tomography and emits
// the Kamada-Kawai visualisation of the measurement graph (Figs. 8-12 of
// the paper) as Graphviz DOT and standalone SVG.
//
// Usage:
//
//	topoviz -dataset BGTL -iterations 15 -o bgtl
//	# writes bgtl.dot and bgtl.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro"
	"repro/internal/layout"
	"repro/internal/persist"
)

func main() {
	var (
		dataset    = flag.String("dataset", "B", "dataset: "+strings.Join(repro.Datasets(), ", "))
		iterations = flag.Int("iterations", 10, "broadcast iterations to aggregate")
		scale      = flag.Float64("scale", 1.0, "broadcast payload scale")
		seed       = flag.Int64("seed", 1, "random seed")
		edges      = flag.Float64("edges", 0.5, "fraction of strongest edges to draw (the paper draws 0.5)")
		outBase    = flag.String("o", "", "output base name (default: the dataset name)")
	)
	flag.Parse()

	if err := run(*dataset, *iterations, *scale, *seed, *edges, *outBase); err != nil {
		fmt.Fprintln(os.Stderr, "topoviz:", err)
		os.Exit(1)
	}
}

func run(dataset string, iterations int, scale float64, seed int64, edges float64, outBase string) error {
	if !(scale > 0) {
		return fmt.Errorf("-scale must be positive, have %g", scale)
	}
	if math.IsNaN(edges) {
		return fmt.Errorf("-edges must be a fraction, have %g", edges)
	}
	d, err := repro.NewDataset(dataset)
	if err != nil {
		return err
	}
	opts := repro.DefaultOptions().WithScale(scale)
	opts.Iterations = iterations
	opts.Seed = seed
	opts.ClusterEvery = 0
	res, err := repro.Run(d, opts)
	if err != nil {
		return err
	}
	pos := layout.KamadaKawai(res.Graph)
	ropts := layout.RenderOptions{Truth: d.GroundTruth, EdgeFraction: edges}

	if outBase == "" {
		outBase = strings.ToLower(dataset)
	}
	if err := persist.WriteAtomic(outBase+".dot", func(w io.Writer) error {
		return layout.WriteDOT(w, res.Graph, pos, ropts)
	}); err != nil {
		return err
	}
	if err := persist.WriteAtomic(outBase+".svg", func(w io.Writer) error {
		return layout.WriteSVG(w, res.Graph, pos, ropts)
	}); err != nil {
		return err
	}
	fmt.Printf("%s: %d nodes, %d measured edges; wrote %s.dot and %s.svg (NMI vs truth: %.3f)\n",
		d.Name, res.Graph.N(), res.Graph.EdgeCount(), outBase, outBase, res.NMI)
	return nil
}
