// Topology-aware scheduling: the motivating application from the paper's
// introduction. Once tomography has produced logical bandwidth clusters,
// collective operations can be scheduled hierarchically: cross each
// bottleneck once, then redistribute inside each fast cluster. This
// example compares a topology-agnostic binomial-tree broadcast against
// the cluster-aware scheduler (repro.BroadcastClusterAware) on the
// Bordeaux site, whose Bordeplage cluster sits behind a single 1 GbE
// inter-switch link. The clusters used by the aware schedule are the ones the
// tomography method itself discovered.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

const payload = 64 << 20 // 64 MB broadcast payload

func main() {
	// Phase 1: discover the logical clusters of the Bordeaux site.
	dataset, err := repro.NewDataset("B")
	if err != nil {
		log.Fatal(err)
	}
	opts := repro.DefaultOptions()
	opts.Iterations = 5
	opts.BT.FileBytes /= 2
	res, err := repro.Run(dataset, opts)
	if err != nil {
		log.Fatal(err)
	}
	clusters := res.Partition.Clusters()
	fmt.Printf("tomography found %d logical clusters (NMI %.3f)\n\n", len(clusters), res.NMI)

	// Phase 2: broadcast fresh data from host 0 with two schedules.
	rng := rand.New(rand.NewSource(42))
	order := []int{0}
	for _, v := range rng.Perm(dataset.N()) {
		if v != 0 {
			order = append(order, v)
		}
	}
	agnosticSched, err := repro.BroadcastBinomial(order)
	if err != nil {
		log.Fatal(err)
	}
	agnostic, err := repro.ExecuteBroadcast(dataset, agnosticSched, 0, payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology-agnostic binomial tree (random order):      %6.2f s  (%d stages)\n",
		agnostic.Duration, agnostic.Stages)

	awareSched, err := repro.BroadcastClusterAware(clusters, 0)
	if err != nil {
		log.Fatal(err)
	}
	aware, err := repro.ExecuteBroadcast(dataset, awareSched, 0, payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster-aware tree (one transfer across the 1 GbE):  %6.2f s  (%d stages)\n",
		aware.Duration, aware.Stages)

	fmt.Printf("\nspeedup from cluster awareness: %.1fx\n", agnostic.Duration/aware.Duration)
	fmt.Println("(the agnostic tree pushes up to dozens of concurrent transfers")
	fmt.Println(" through the shared Dell-Cisco link; the aware tree crosses it once)")
}
