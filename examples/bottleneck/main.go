// Bottleneck discovery: the Fig. 8 scenario. The Bordeaux site has three
// physical compute clusters; the Bordeplage cluster reaches the other two
// only through a single 1 GbE inter-switch link. An isolated
// point-to-point probe sees the full 890 Mbit/s across that link and is
// therefore blind to the bottleneck (`cmd/experiments -run netpipe`
// measures it); BitTorrent tomography finds it because the link saturates
// under collective load.
//
//	go run ./examples/bottleneck
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	dataset, err := repro.NewDataset("B") // 64 Bordeaux nodes, 3 clusters
	if err != nil {
		log.Fatal(err)
	}

	// BitTorrent tomography under collective load.
	opts := repro.DefaultOptions()
	opts.Iterations = 5
	opts.BT.FileBytes /= 2
	res, err := repro.Run(dataset, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tomography: %d clusters found (NMI vs site-admin ground truth: %.3f)\n\n",
		res.Partition.NumClusters(), res.NMI)
	for ci, members := range res.Partition.Clusters() {
		counts := map[string]int{}
		for _, v := range members {
			name := dataset.HostName(v)
			for i := range name {
				if name[i] == '-' {
					counts[name[:i]]++
					break
				}
			}
		}
		fmt.Printf("cluster %d (%d nodes): composition %v\n", ci, len(members), counts)
	}
	fmt.Println("\nThe split isolates Bordeplage: its nodes sit behind the single")
	fmt.Println("Dell-Cisco 1 GbE connection, the bottleneck of Fig. 7/8 in the paper.")
	fmt.Println("Bordereau and Borderline merge into one logical cluster because the")
	fmt.Println("link between them is fast — exactly the paper's Fig. 8 outcome.")
}
