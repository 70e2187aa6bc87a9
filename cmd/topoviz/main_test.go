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

// A payload scale that is not positive (NaN included), or an edge
// fraction that is NaN, is refused with exit status 1 and the flag named,
// before anything is measured or written, instead of silently measuring
// the full 239 MB payload or panicking while rendering.
func TestNonPositiveScaleFails(t *testing.T) {
	base := filepath.Join(t.TempDir(), "viz")
	for _, c := range []struct{ flag, value, want string }{
		{"-scale", "0", "-scale must be positive"},
		{"-scale", "-0.5", "-scale must be positive"},
		{"-scale", "NaN", "-scale must be positive"},
		{"-edges", "NaN", "-edges must be a fraction"},
	} {
		// A repeated flag takes its last value.
		cmd := exec.Command(os.Args[0], "-dataset", "2x2", "-iterations", "1", "-scale", "0.05", c.flag, c.value, "-o", base)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 {
			t.Fatalf("topoviz %s %s: err %v, stdout %q; want exit status 1 and nothing on stdout", c.flag, c.value, err, out)
		}
		if !strings.Contains(stderr.String(), c.want) || strings.Contains(stderr.String(), "panic") {
			t.Fatalf("topoviz %s %s: stderr does not name the flag, or panics:\n%s", c.flag, c.value, stderr.Bytes())
		}
		if _, err := os.Stat(base + ".dot"); !os.IsNotExist(err) {
			t.Fatalf("topoviz %s %s wrote %s.dot", c.flag, c.value, base)
		}
	}
}
