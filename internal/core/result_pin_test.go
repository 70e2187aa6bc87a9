package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/scenario"
)

// TestResultDocumentsArePinned holds one small measurement of every
// registered paper dataset, a 64-host fat tree and the drift fixture to the
// bytes it archived at commit c22a285: the SHA-256 of the result document
// (persist.SaveResult, as a campaign cell archives it) and of the
// measurement graph (persist.WriteGraph, as bttomo -save writes it) at
// Workers 1. Any change that reorders a float sum in the solver or an RNG
// draw in the swarm moves a digest here; moving one on purpose is a
// keyVersion bump (ROADMAP open item A), never a drive-by.
func TestResultDocumentsArePinned(t *testing.T) {
	drift, err := persist.LoadSpec("../../testdata/specs/drift.json")
	if err != nil {
		t.Fatal(err)
	}
	type pinned struct {
		spec  *scenario.Spec
		iters int
	}
	var cases []pinned
	for _, spec := range scenario.BuiltinSpecs() {
		cases = append(cases, pinned{spec: spec, iters: 3})
	}
	cases = append(cases,
		pinned{spec: scenario.FatTree(4, 4, 4, 890, 2000, 300), iters: 3},
		// Six iterations: the fixture's timeline runs to a host-join at 5.
		pinned{spec: drift, iters: 6})
	pins := map[string][2]string{ // name -> {result document, measurement graph}
		"2x2":           {"6cc34f3a5c84c4ebaf795b6a5704eafbda6824490b699e9b5a3ea91909982d0f", "daae6abee7567a38bac8fb629cd59f0b10eae8e73d01b00ce1eb2307daee07c2"},
		"B":             {"74b92d8952454361d48a04a4543a123464f5be9c3ab799b1b8006b1f029f9a77", "b6ea375e3f8fac640a8334f5b99931c88536340b5839a358d39105269e2bd429"},
		"BT":            {"f2ba5f766166499befd89fb36ad7f395c77b08ef563ed2a10fe02dbb23151e62", "eccdc62ef3ce8daa63ab72b804c158314e2635ff51cb3a94124a4fe8d2dc9ca3"},
		"GT":            {"6cc4b64ac5821710795d32fe473ce9f184f1d04dfe49678a5b74412d4e018893", "867d4cd829604217c60dc539eef7c7e27c47267c19b6e1805bdfbdc49277b3e1"},
		"BGT":           {"6a578cb50eda1cba7682dfc7224698f1a4c26ab358197e4cdddaf2b20f6af73d", "e05d7b0e55f1897c70e813bd3160790f527f2b1c1ba77134e98cb540ecc4d359"},
		"BGTL":          {"cd5fff92aa6f54f52c6523713910be042bfeaf8f2da4a77a1ebc1ded3bf58d4d", "e5c795ceaed74fc3b3125fb10aa3c594632930c2f2961191e10181d4df7268ca"},
		"fattree-4x4x4": {"e9f6447e7a5c70d3eda85ea9a221f8bc120877b487426537e78c6b0f6b89dc5a", "6e428ffbecdf858dcf595043097474874b4bfbf3becbccf32cc388134ce260f5"},
		"drift-fixture": {"b6456508a5507304016e69ed1eae393e63e3c7322ec83796c9766100c402da07", "9d27c3fd0f8f88dcaabff7ca994d31e52cbae3d8e23a00bce18df3ba96d05853"},
	}
	for _, c := range cases {
		t.Run(c.spec.Name, func(t *testing.T) {
			d, err := c.spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunDataset(d, parallelTestOptions(c.iters, 1))
			if err != nil {
				t.Fatal(err)
			}
			var series []float64
			for _, rec := range res.Iterations {
				if rec.Clustered {
					series = append(series, rec.NMI)
				}
			}
			doc := persist.EncodeResult(c.spec.Name, res.Partition, res.Q, res.NMI, res.TotalMeasurementTime, series)
			path := filepath.Join(t.TempDir(), "result.json")
			if err := persist.SaveResult(path, doc); err != nil {
				t.Fatal(err)
			}
			result, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var graph bytes.Buffer
			if err := persist.WriteGraph(&graph, res.Graph); err != nil {
				t.Fatal(err)
			}
			pin, ok := pins[c.spec.Name]
			if !ok {
				t.Fatalf("no pin for %q", c.spec.Name)
			}
			if got := digest(result); got != pin[0] {
				t.Errorf("result document sha256 %s, pinned %s", got, pin[0])
			}
			if got := digest(graph.Bytes()); got != pin[1] {
				t.Errorf("measurement graph sha256 %s, pinned %s", got, pin[1])
			}
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWindowedRunIsPinned holds a BGTL run that clusters every iteration
// over a three-iteration sliding window, with and without TopFraction, to
// the bits recorded at commit af42d90, when every clustering built a fresh
// mean graph: per iteration the Q bits and the partition, then the final
// measurement graph with its strengths and total. Retirement shrinks
// vertex degrees between clusterings, so a reused mean graph that kept a
// stale row, strength or total moves the digest; with TopFraction the
// filtered copy is taken over the reused graph.
func TestWindowedRunIsPinned(t *testing.T) {
	var bgtl *scenario.Spec
	for _, spec := range scenario.BuiltinSpecs() {
		if spec.Name == "BGTL" {
			bgtl = spec
		}
	}
	d, err := bgtl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pins := map[float64]string{ // TopFraction -> digest
		0:   "bddb7f349d5d4cb4ea3b3d6e4169ce6aa683bf7bfd82ebc6dd0231479c01e91d",
		0.5: "a3bf3cde72dbee3c2f28fe32f1c21a8a35169fe623dc085bed809d0eaa96b16a",
	}
	for _, frac := range []float64{0, 0.5} {
		opts := parallelTestOptions(6, 1)
		opts.ClusterEvery, opts.Window, opts.TopFraction = 1, 3, frac
		res, err := RunDataset(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, rec := range res.Iterations {
			fmt.Fprintf(h, "%d %v %x %v\n", rec.Iteration, rec.Clustered, math.Float64bits(rec.Q), rec.Partition.Labels)
		}
		if err := persist.WriteGraph(h, res.Graph); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < res.Graph.N(); v++ {
			fmt.Fprintf(h, "%x\n", math.Float64bits(res.Graph.Strength(v)))
		}
		fmt.Fprintf(h, "%x %d\n", math.Float64bits(res.Graph.TotalWeight()), res.Graph.EdgeCount())
		if got := hex.EncodeToString(h.Sum(nil)); got != pins[frac] {
			t.Errorf("TopFraction %g: run sha256 %s, pinned %s", frac, got, pins[frac])
		}
	}
}
