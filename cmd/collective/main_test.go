package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const childEnv = "COLLECTIVE_TEST_CHILD"

// The test binary re-executed with childEnv set is the command itself,
// race-instrumented whenever the test is.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain is `collective args...` run to completion: exit status 0 or the
// test fails. It returns the child's standard output.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("collective %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out)
}

// A small dataset is measured and all six schedules (agnostic and
// cluster-aware broadcast, reduce, all-to-all) are timed and tabulated.
func TestTimesEverySchedule(t *testing.T) {
	out := runMain(t, "-dataset", "2x2", "-iterations", "2", "-scale", "0.05", "-payload", "4")
	for _, want := range []string{
		"tomography on 2x2:", "collective timings on 2x2 (4 MB per transfer)",
		"binomial (agnostic)", "ring (agnostic)", "cluster-aware (bounded cross)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("no %q in:\n%s", want, out)
		}
	}
	if rows := strings.Count(out, "cluster-aware"); rows != 3 {
		t.Fatalf("%d cluster-aware rows, want 3:\n%s", rows, out)
	}
}
