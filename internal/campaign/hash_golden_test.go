package campaign

import "testing"

// The campaign cache is content-addressed across processes and PRs:
// archives written yesterday must still be found by the keys computed
// today, or every resume silently degrades to a full recomputation. The
// key is a hash of the scenario spec's canonical JSON plus the canonical
// options document, so it drifts whenever either canonical form changes —
// a reordered struct field, a renamed JSON tag, a changed default, an
// edited builtin topology. This golden test pins the keys of the six
// builtin scenarios under default options to catch such drift at review
// time.
//
// If this test fails, first decide whether the drift is intentional. A
// deliberate format or topology change is fine — update the golden keys
// below (regenerate by expanding a campaign over the six names and
// printing run.Key) and say in the PR that existing campaign caches are
// invalidated. An unintentional failure means refactoring changed the
// canonical bytes; fix the refactor instead of the goldens.
func TestBuiltinCacheKeysArePinned(t *testing.T) {
	// Pinned under key schema v3 (keyVersion 3: Backend joined the
	// result-relevant options when the backend axis landed; v2 archives
	// are deliberately invalidated and swept by the stale-keyVersion GC).
	golden := map[string]string{
		"2x2":  "f51751187b9a644b819ed6da931982ce7f20eccba6155a89cc1a219c14618611",
		"B":    "222b05bb92e0feaae80ff12c83a3a9c23e2f05bfe9066bc4376d78bf114c33f8",
		"BGT":  "141bc8f87c8f16c289a5707a7eb1a572ee53ba123e0f9ffabcc54873b66c65d3",
		"BGTL": "35c9cb9f63b840c6cdd0c12b67cdadb24309048ce0b807ec8eb274053d2cc8d0",
		"BT":   "1494770ac3179e9d8d5c2da45b1ffa87832dfdee67a9bb50d41b177e2a299461",
		"GT":   "523c28112802cc4273516b9f74bc4f4f7ffb6c287dddf8621881376280ced9e7",
	}
	spec := NewBuilder("golden").
		Scenario("2x2", "B", "BGT", "BGTL", "BT", "GT").
		mustSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(golden) {
		t.Fatalf("expanded %d runs for %d scenarios", len(runs), len(golden))
	}
	for _, r := range runs {
		want, ok := golden[r.Scenario]
		if !ok {
			t.Fatalf("unexpected scenario %q", r.Scenario)
		}
		if r.Key != want {
			t.Errorf("cache key of %s drifted:\n  have %s\n  want %s\n(see the comment above for what this means)",
				r.Scenario, r.Key, want)
		}
	}
}
