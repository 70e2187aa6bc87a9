package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const childEnv = "EXPERIMENTS_TEST_CHILD"

// The test binary re-executed with childEnv set is the command itself,
// race-instrumented whenever the test is.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain is `experiments args...` run to completion: exit status 0 or the
// test fails. It returns the child's standard output.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out)
}

// One named experiment at a toy scale prints its table and writes its
// CSV series under -out.
func TestRunOneExperimentWritesItsSeries(t *testing.T) {
	dir := t.TempDir()
	out := runMain(t, "-run", "fig4", "-scale", "0.02", "-iterations", "2", "-out", dir)
	for _, want := range []string{"E1 / Fig.4", "local site", "artifacts in " + dir} {
		if !strings.Contains(out, want) {
			t.Fatalf("no %q in:\n%s", want, out)
		}
	}
	series, err := os.ReadFile(filepath.Join(dir, "fig4_bars.csv"))
	if err != nil || !bytes.HasPrefix(series, []byte("peer,group,w\n")) {
		t.Fatalf("fig4_bars.csv: %v\n%s", err, series)
	}
}

// A payload scale that is not positive (NaN included) or a negative
// iteration count is refused with exit status 1 and the flag named,
// instead of silently falling back to the paper's payload or iteration
// counts.
func TestBadScaleOrIterationsFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale must be positive"},
		{[]string{"-scale", "-1"}, "-scale must be positive"},
		{[]string{"-scale", "NaN"}, "-scale must be positive"},
		{[]string{"-iterations", "-1"}, "-iterations must be 0"},
	} {
		args := append([]string{"-run", "netpipe", "-out", ""}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 {
			t.Fatalf("experiments %v: err %v, stdout %q; want exit status 1 and nothing on stdout", tc.args, err, out)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("experiments %v: no %q on stderr:\n%s", tc.args, tc.want, stderr.Bytes())
		}
	}
}
