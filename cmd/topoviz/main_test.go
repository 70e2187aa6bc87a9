package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const childEnv = "TOPOVIZ_TEST_CHILD"

// The test binary re-executed with childEnv set is the command itself,
// race-instrumented whenever the test is.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain is `topoviz args...` run to completion: exit status 0 or the
// test fails. It returns the child's standard output.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("topoviz %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out)
}

// A small dataset is measured, laid out and written as <base>.dot and
// <base>.svg, and the summary line names both.
func TestWritesDOTAndSVG(t *testing.T) {
	base := filepath.Join(t.TempDir(), "viz")
	out := runMain(t, "-dataset", "2x2", "-iterations", "2", "-scale", "0.05", "-o", base)
	if !strings.Contains(out, "2x2: 4 nodes") || !strings.Contains(out, "wrote "+base+".dot and "+base+".svg") {
		t.Fatalf("summary line:\n%s", out)
	}
	for ext, want := range map[string]string{".dot": "graph", ".svg": "<svg"} {
		data, err := os.ReadFile(base + ext)
		if err != nil || !bytes.Contains(data, []byte(want)) {
			t.Fatalf("%s%s: %v, no %q in %d bytes", base, ext, err, want, len(data))
		}
	}
}
