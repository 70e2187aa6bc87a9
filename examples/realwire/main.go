// Real-socket measurement: the deployment path of the paper's method.
// This example measures with the "wire" backend: each iteration is an
// instrumented BitTorrent broadcast between real clients over loopback
// TCP (the wire protocol the paper's patched client speaks), each peer
// pair paced at the scenario's path bandwidth. The per-peer fragment
// counts then go through the same analysis phase (Louvain clustering,
// NMI against the declared sites) as the simulator's.
//
// The scenario is two 4-host sites whose uplinks are 36x slower than
// their host links, as in `cmd/experiments -run simreal`: a contrast a
// loopback swarm recovers. Point the same clients at real machines and
// the clusters become the network's logical bandwidth clusters.
//
//	go run ./examples/realwire
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	spec, err := repro.NewSpec("contrast").
		Link("eth", 900, 50e-6).
		Link("wan", 25, 4e-3).
		Switch("core").
		FlatSite("left", "core", 4, "eth", "wan").
		FlatSite("right", "core", 4, "eth", "wan").
		Spec()
	if err != nil {
		log.Fatal(err)
	}
	opts := repro.DefaultOptions().WithBackend("wire").WithIterations(3).WithScale(0.007)

	fmt.Printf("measuring %s (%d hosts) with %d loopback TCP broadcasts of %d fragments...\n",
		spec.Name, spec.NumHosts(), opts.Iterations, opts.BT.NumFragments())
	res, err := repro.RunSpec(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measurement phase: %.2f s of broadcasts, %.0f fragments exchanged per broadcast\n\n",
		res.TotalMeasurementTime, res.Graph.TotalWeight())

	fmt.Printf("Louvain on the measured graph: %d cluster(s), Q=%.3f, NMI vs the sites %.3f\n",
		res.Partition.NumClusters(), res.Q, res.NMI)
	for ci, members := range res.Partition.Clusters() {
		names := make([]string, len(members))
		for i, v := range members {
			names[i] = res.Graph.Label(v)
		}
		fmt.Printf("cluster %d: %s\n", ci, strings.Join(names, " "))
	}
	fmt.Println("(wire runs are real measurements: they reproduce in distribution, not bit for bit)")
}
