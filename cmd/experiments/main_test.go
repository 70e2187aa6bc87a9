package main

import (
	"bytes"
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
