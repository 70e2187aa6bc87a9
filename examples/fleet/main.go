// Command fleet demonstrates distributed campaign execution: two workers
// (here goroutines; in production, processes on different machines
// sharing a filesystem) join the same campaign against one shared archive
// directory. The lease protocol partitions the grid — every run executed
// by exactly one worker — and the finalized aggregate is byte-identical
// to a single-process run, because run archives are content-addressed and
// bit-identical for any execution schedule.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro"
)

func main() {
	c, err := repro.NewCampaign("fleet-demo").
		Note("two scenarios x two seeds at a reduced payload, split across two workers").
		Scenario("2x2", "GT").
		Iterations(6).
		Seeds(1, 2).
		Scales(0.05).
		Spec()
	if err != nil {
		log.Fatal(err)
	}

	base, err := os.MkdirTemp("", "fleet-demo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// The single-process reference: same campaign, private archive.
	single, err := repro.RunCampaign(c, repro.CampaignOptions{
		OutDir: filepath.Join(base, "single"), Jobs: 2, Resume: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two fleet workers share one archive. Each claims runs through
	// leases/<key>.json; whichever observes the grid complete finalizes
	// the shared aggregate.
	shared := filepath.Join(base, "shared")
	workers := []string{"alpha", "beta"}
	outcomes := make([]*repro.CampaignOutcome, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, owner := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i], errs[i] = repro.JoinCampaign(c, repro.CampaignOptions{
				OutDir: shared, Jobs: 2, Owner: owner, Resume: true,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			log.Fatalf("worker %s: %v", workers[i], err)
		}
	}

	executed := 0
	for i, out := range outcomes {
		m := out.Manifest
		fmt.Printf("worker %s: %d computed, %d resolved from peers' archives\n",
			workers[i], m.Misses, m.Hits)
		executed += m.Misses
	}
	fmt.Printf("fleet executed %d runs for a %d-cell grid (exactly once each)\n",
		executed, single.Manifest.Runs)

	singleCSV, err := os.ReadFile(single.CSVPath)
	if err != nil {
		log.Fatal(err)
	}
	fleetCSV, err := os.ReadFile(outcomes[0].CSVPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet aggregate byte-identical to the single-process run: %v\n\n",
		bytes.Equal(singleCSV, fleetCSV))

	fmt.Print(outcomes[0].Table)
}
