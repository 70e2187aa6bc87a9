package main

// The CLI's contracts asserted through the shipped binary: every test
// runs the real main() as a child process (this test binary, re-executed
// behind TestMain's switch, so the child is race-instrumented whenever
// the test is).

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const childEnv = "BTTOMO_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain is `bttomo args...` run to completion: exit status 0 or the test
// fails. It returns the child's standard output.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bttomo %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out)
}

// The declarative path a user would take: a custom JSON scenario with
// parallel measurement, and the registry listing.
func TestSpecRunAndList(t *testing.T) {
	out := runMain(t, "-spec", "../../testdata/specs/twin.json", "-iterations", "3", "-scale", "0.2", "-workers", "2")
	for _, want := range []string{"measuring: 3 iterations", "2 workers", "clustering:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-spec twin.json: no %q in:\n%s", want, out)
		}
	}
	if out := runMain(t, "-list"); !strings.Contains(out, "BGTL") {
		t.Fatalf("-list does not show the builtin registry:\n%s", out)
	}
}

// The dynamics determinism contract end to end: the time-varying drift
// fixture (link drift, a transient failure, churn, a burst) archives a
// bit-identical measurement graph for Workers=1 and Workers=4. (In
// process: core.TestDynamicsBitIdenticalAcrossWorkers.)
func TestDriftArchiveIsIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var graphs [2][]byte
	for i, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "drift_w"+workers+".json")
		runMain(t, "-spec", "../../testdata/specs/drift.json", "-iterations", "6", "-scale", "0.1", "-workers", workers, "-save", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = data
	}
	if len(graphs[0]) == 0 || !bytes.Equal(graphs[0], graphs[1]) {
		t.Fatalf("-workers 1 and -workers 4 archived different graphs (%d and %d bytes)", len(graphs[0]), len(graphs[1]))
	}
}

// A payload scale that is not positive is refused with exit status 1 and
// the flag named, before anything is measured, instead of silently
// measuring the full 239 MB payload.
func TestNonPositiveScaleFails(t *testing.T) {
	for _, scale := range []string{"0", "-0.5"} {
		cmd := exec.Command(os.Args[0], "-dataset", "2x2", "-iterations", "1", "-scale", scale)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 {
			t.Fatalf("bttomo -scale %s: err %v, stdout %q; want exit status 1 and nothing on stdout", scale, err, out)
		}
		if !strings.Contains(stderr.String(), "-scale must be positive") {
			t.Fatalf("bttomo -scale %s: stderr does not name the flag:\n%s", scale, stderr.Bytes())
		}
	}
}
