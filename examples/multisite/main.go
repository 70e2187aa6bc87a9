// Multi-site convergence study: the Fig. 12/13 scenario. Four Grid'5000
// sites (Bordeaux, Grenoble, Toulouse, Lyon) with 16 nodes each — the
// paper's hardest setting, which needed the most iterations (~15) to
// reach perfect accuracy. This example runs the convergence study;
// `cmd/topoviz -dataset BGTL` renders the measurement graph like Fig. 12.
//
//	go run ./examples/multisite
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	dataset, err := repro.NewDataset("BGTL")
	if err != nil {
		log.Fatal(err)
	}

	opts := repro.DefaultOptions()
	opts.Iterations = 15
	opts.BT.FileBytes /= 4 // keep the example quick

	res, err := repro.Run(dataset, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("NMI vs iterations (the BGTL curve of Fig. 13):")
	converged := 0
	for _, rec := range res.Iterations {
		if !rec.Clustered {
			continue
		}
		bar := ""
		for i := 0; i < int(rec.NMI*40); i++ {
			bar += "#"
		}
		fmt.Printf("  it %2d  NMI %.3f |%s\n", rec.Iteration, rec.NMI, bar)
		if rec.NMI > 0.999 && converged == 0 {
			converged = rec.Iteration
		}
	}
	if converged > 0 {
		fmt.Printf("\nfirst perfect clustering after %d iterations ", converged)
		fmt.Println("(the paper needed ~15 for this 4-site setting, its maximum)")
	} else {
		fmt.Printf("\nfinal NMI %.3f with %d clusters (truth: 4 sites)\n",
			res.NMI, res.Partition.NumClusters())
	}
}
