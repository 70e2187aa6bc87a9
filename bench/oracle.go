package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json pins the SHA-256 of each workload's output. The tomo-*
// and analyze-1k digests hold for every -seed (their model inputs are
// fixed); the campaign.csv of the archive serve-archive1k builds is
// pinned for seed 1, and for other seeds every repetition must still
// equal the first one.
//
//go:embed expected.json
var expectedJSON []byte

// oracle checks one workload's output digests: every repetition against
// the first, and the first against the pinned value when there is one.
type oracle struct {
	key    string
	pinned string
	first  string
}

func newOracle(name string, cfg config) oracle {
	o := oracle{key: name}
	if cfg.toy {
		return o
	}
	var pins map[string]string
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	switch name {
	case wBGTL, wFatTree, wDrift, wAnalyze:
		o.pinned = pins[name]
	default:
		o.key = fmt.Sprintf("%s@seed%d", name, cfg.seed)
		o.pinned = pins[o.key]
	}
	return o
}

// mismatch returns 1 when digest is not what the oracle expects.
func (o *oracle) mismatch(digest string) int {
	if o.first == "" {
		o.first = digest
		switch {
		case o.pinned == "":
			fmt.Printf("# digest %s %s (not pinned; repetitions must agree)\n", o.key, digest)
		case o.pinned == digest:
			fmt.Printf("# digest %s %s (matches expected.json)\n", o.key, digest)
		default:
			fmt.Printf("# digest %s %s DIFFERS from expected.json %s\n", o.key, digest, o.pinned)
		}
	}
	if digest != o.first || (o.pinned != "" && digest != o.pinned) {
		return 1
	}
	return 0
}
