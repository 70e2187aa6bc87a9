// Customspec: declare a scenario of your own — no Go topology code — and
// run BitTorrent tomography on it with parallel measurement.
//
// The scenario here is nowhere in the paper: a three-site star whose
// uplinks get progressively slower (a heterogeneous federation), built
// with the SkewedSites generator, archived to JSON, loaded back the way
// `bttomo -spec file.json` would, and measured with four workers.
//
//	go run ./examples/customspec
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	// A generated family member: 3 sites x 6 hosts, 890 Mbit/s inside a
	// site, uplinks decaying 400 -> 200 -> 100 Mbit/s across sites.
	spec := repro.SkewedSitesSpec(3, 6, 890, 400, 0.5)

	// Specs are data. Archive it; hand-edit it; ship it to a colleague.
	dir, err := os.MkdirTemp("", "customspec")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "skewed.json")
	if err := repro.SaveSpec(path, spec); err != nil {
		log.Fatal(err)
	}
	loaded, err := repro.LoadSpec(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s: %d hosts, %d declared clusters (from %s)\n",
		loaded.Name, loaded.NumHosts(), len(loaded.Clusters()), path)

	// Registered specs sit next to the built-ins: `bttomo -dataset
	// skewed-3x6` would now work in this process, and -list shows it.
	if err := repro.RegisterSpec(loaded); err != nil {
		log.Fatal(err)
	}
	fmt.Println("registry:", repro.Datasets())

	// Measure on four workers; results are bit-identical to a
	// single-worker run. The payload is large enough for the declared
	// ground truth of small sites to be recoverable.
	opts := repro.DefaultOptions().WithWorkers(4)
	opts.Iterations = 8
	opts.BT.FileBytes = 8000 * opts.BT.FragmentSize
	res, err := repro.RunSpec(loaded, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfound %d clusters (Q=%.3f, NMI vs declared truth=%.3f)\n",
		res.Partition.NumClusters(), res.Q, res.NMI)
	d, err := loaded.Compile()
	if err != nil {
		log.Fatal(err)
	}
	for ci, members := range res.Partition.Clusters() {
		fmt.Printf("cluster %d: %d nodes, e.g. %s\n", ci, len(members), d.HostName(members[0]))
	}
	for _, b := range repro.Bottlenecks(res) {
		fmt.Println("bottleneck:", b)
	}
}
