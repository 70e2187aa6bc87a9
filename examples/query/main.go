// Command query demonstrates the archive query layer: run a small
// campaign, then read it back through the typed Store — listing,
// status, a per-axis marginal curve, a self-diff. `campaign serve`
// exposes the same read path over HTTP, with ETag/If-None-Match
// polling for dashboards.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	c, err := repro.NewCampaign("query-demo").
		Note("two scenarios x two seeds at a reduced payload").
		Scenario("2x2", "GT").
		Iterations(6).
		Seeds(1, 2).
		Scales(0.05).
		Spec()
	if err != nil {
		log.Fatal(err)
	}
	base, err := os.MkdirTemp("", "query-demo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)
	dir := filepath.Join(base, "camp")
	if _, err := repro.RunCampaign(c, repro.CampaignOptions{OutDir: dir, Jobs: 2, Resume: true}); err != nil {
		log.Fatal(err)
	}

	// The typed read path: no caller ever parses runs/ by hand.
	st, err := repro.OpenArchive(dir)
	if err != nil {
		log.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive holds %d runs; first key %s...\n", len(runs), runs[0].Key[:12])

	status, err := st.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status: %d executed, %d archived, finalized=%v\n",
		status.Executed, status.Archived, status.Finalized)

	// One axis of the grid collapsed to a curve: NMI per seed.
	m, err := st.Marginals("seed")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range m.Points {
		nmi := "-"
		if p.MeanNMI != nil {
			nmi = fmt.Sprintf("%.3f", *p.MeanNMI)
		}
		fmt.Printf("seed=%s: %d runs, mean NMI %s\n", p.Value, p.Runs, nmi)
	}

	// Regression gate: an archive diffed against itself is clean by the
	// bit-identity contract.
	rep, err := st.Diff(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-diff: %d common keys, %d regressions\n", rep.Common, rep.RegressionCount)
}
