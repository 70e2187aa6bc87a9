package main

import (
	"bytes"
	"errors"
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

// A payload scale that is not positive (NaN included) is refused with exit
// status 1 and the flag named, before anything is measured, instead of
// silently measuring a one-fragment broadcast.
func TestNonPositiveScaleFails(t *testing.T) {
	for _, scale := range []string{"0", "-0.5", "NaN"} {
		cmd := exec.Command(os.Args[0], "-dataset", "2x2", "-iterations", "1", "-scale", scale)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 {
			t.Fatalf("collective -scale %s: err %v, stdout %q; want exit status 1 and nothing on stdout", scale, err, out)
		}
		if !strings.Contains(stderr.String(), "-scale must be positive") || strings.Contains(stderr.String(), "panic") {
			t.Fatalf("collective -scale %s: stderr does not name the flag, or panics:\n%s", scale, stderr.Bytes())
		}
	}
}
