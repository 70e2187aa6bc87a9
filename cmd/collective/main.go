// Command collective demonstrates the paper's motivating application:
// after tomography discovers the logical bandwidth clusters of a network,
// collective operations can be scheduled topology-aware. It measures the
// clusters of a dataset, then times agnostic versus cluster-aware
// schedules for broadcast, reduce and all-to-all on the same network.
//
// Usage:
//
//	collective -dataset B -payload 64
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro"
	"repro/internal/collective"
	"repro/internal/report"
)

func main() {
	var (
		dataset   = flag.String("dataset", "B", "dataset: "+strings.Join(repro.Datasets(), ", "))
		payloadMB = flag.Int("payload", 64, "per-transfer payload in MB")
		iters     = flag.Int("iterations", 5, "tomography iterations before scheduling")
		scale     = flag.Float64("scale", 0.5, "tomography payload scale")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(*dataset, *payloadMB, *iters, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "collective:", err)
		os.Exit(1)
	}
}

func run(dataset string, payloadMB, iters int, scale float64, seed int64) error {
	if !(scale > 0) {
		return fmt.Errorf("-scale must be positive, have %g", scale)
	}
	d, err := repro.NewDataset(dataset)
	if err != nil {
		return err
	}
	opts := repro.DefaultOptions().WithScale(scale)
	opts.Iterations = iters
	opts.Seed = seed
	res, err := repro.Run(d, opts)
	if err != nil {
		return err
	}
	clusters := res.Partition.Clusters()
	fmt.Printf("tomography on %s: %d clusters (NMI %.3f vs ground truth)\n\n",
		d.Name, len(clusters), res.NMI)

	payload := float64(payloadMB << 20)
	rng := rand.New(rand.NewSource(seed))
	order := []int{0}
	for _, v := range rng.Perm(d.N()) {
		if v != 0 {
			order = append(order, v)
		}
	}

	t := &report.Table{
		Title:  fmt.Sprintf("collective timings on %s (%d MB per transfer)", d.Name, payloadMB),
		Header: []string{"operation", "schedule", "stages", "transfers", "seconds"},
	}

	bAgn, err := collective.BroadcastBinomial(order)
	if err != nil {
		return err
	}
	r, err := collective.ExecuteBroadcast(d.Eng, d.Net, d.Hosts, bAgn, 0, payload)
	if err != nil {
		return err
	}
	t.AddRow("broadcast", "binomial (agnostic)", r.Stages, r.Transfers, r.Duration)

	bAware, err := collective.BroadcastClusterAware(clusters, 0)
	if err != nil {
		return err
	}
	r, err = collective.ExecuteBroadcast(d.Eng, d.Net, d.Hosts, bAware, 0, payload)
	if err != nil {
		return err
	}
	t.AddRow("broadcast", "cluster-aware", r.Stages, r.Transfers, r.Duration)

	rAgn, err := collective.ReduceBinomial(order)
	if err != nil {
		return err
	}
	r, err = collective.ExecuteReduce(d.Eng, d.Net, d.Hosts, rAgn, 0, payload)
	if err != nil {
		return err
	}
	t.AddRow("reduce", "binomial (agnostic)", r.Stages, r.Transfers, r.Duration)

	rAware, err := collective.ReduceClusterAware(clusters, 0)
	if err != nil {
		return err
	}
	r, err = collective.ExecuteReduce(d.Eng, d.Net, d.Hosts, rAware, 0, payload)
	if err != nil {
		return err
	}
	t.AddRow("reduce", "cluster-aware", r.Stages, r.Transfers, r.Duration)

	aRing, err := collective.AllToAllRing(d.N())
	if err != nil {
		return err
	}
	r, err = collective.Execute(d.Eng, d.Net, d.Hosts, aRing, payload/8)
	if err != nil {
		return err
	}
	t.AddRow("all-to-all", "ring (agnostic)", r.Stages, r.Transfers, r.Duration)

	aAware, err := collective.AllToAllClusterAware(clusters, 2)
	if err != nil {
		return err
	}
	r, err = collective.Execute(d.Eng, d.Net, d.Hosts, aAware, payload/8)
	if err != nil {
		return err
	}
	t.AddRow("all-to-all", "cluster-aware (bounded cross)", r.Stages, r.Transfers, r.Duration)

	return t.Write(os.Stdout)
}
