// Command dynamics demonstrates the time-varying scenario subsystem: a
// two-site network whose inter-site bottleneck erodes mid-run while hosts
// churn and cross traffic bursts — all scripted as declarative events and
// replayed deterministically on every measurement replica.
//
// The program runs the same dynamic scenario with Workers=1 and
// Workers=4 and shows the results are bit-identical, then contrasts the
// dynamic clustering with the static base topology's.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Two sites behind a WAN slow enough to separate them. From
	// iteration 3 the WAN is upgraded 40x (think: the overlay re-routed
	// onto a fat backbone), one host leaves the swarm and later returns,
	// and a 48 MB burst crosses the fabric during iteration 4.
	spec, err := repro.NewSpec("erode").
		Note("two sites whose separating bottleneck disappears mid-run").
		Link("eth", 890, 50e-6).
		Link("wan", 60, 4e-3).
		Switch("core").
		FlatSite("left", "core", 6, "eth", "wan").
		FlatSite("right", "core", 6, "eth", "wan").
		LinkScale(3, "wan", 40).
		HostLeave(3, "right-5").
		HostJoin(6, "right-5").
		Burst(4, 1, "left-0", "right-0", 48).
		Spec()
	if err != nil {
		log.Fatal(err)
	}

	opts := repro.DefaultOptions()
	opts.Iterations = 8
	opts.BT.FileBytes = 3000 * opts.BT.FragmentSize
	opts.Window = 4 // slide, so the clustering tracks the current fabric

	seq, err := repro.RunSpec(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Workers = 4
	par, err := repro.RunSpec(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic scenario %q: %d scripted events\n", spec.Name, len(spec.Dynamics))
	fmt.Printf("workers=1: clusters=%d Q=%.3f NMI=%.3f\n",
		seq.Partition.NumClusters(), seq.Q, seq.NMI)
	fmt.Printf("workers=4: clusters=%d Q=%.3f NMI=%.3f (bit-identical: %v)\n",
		par.Partition.NumClusters(), par.Q, par.NMI, identical(seq, par))

	// Host churn is visible per iteration: the swarm shrinks while
	// right-5 is away.
	for _, rec := range par.Iterations {
		n := 12
		if rec.ActiveHosts != nil {
			n = len(rec.ActiveHosts)
		}
		fmt.Printf("  iteration %d: %2d hosts, clusters=%d NMI=%.3f\n",
			rec.Iteration, n, rec.Partition.NumClusters(), rec.NMI)
	}

	// The same spec with its timeline stripped measures the static base
	// topology: the two sites stay separated for the whole run.
	static := spec.Clone()
	static.Dynamics = nil
	opts.Workers = 1
	base, err := repro.RunSpec(static, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static base topology: clusters=%d NMI=%.3f (the split persists without the upgrade)\n",
		base.Partition.NumClusters(), base.NMI)
}

func identical(a, b *repro.Result) bool {
	if a.Q != b.Q || a.NMI != b.NMI {
		return false
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}
