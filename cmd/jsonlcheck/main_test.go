package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownSchemaExitsTwo: a schema name the checker does not know —
// the retired "trajectory" included — is a usage error (exit 2) that
// names it, reported before any file is opened.
func TestUnknownSchemaExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "jsonlcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, schema := range []string{"trajectory", "nope"} {
		out, err := exec.Command(bin, "-schema", schema, "does-not-exist.jsonl").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-schema %s: want exit status 2, got %v\n%s", schema, err, out)
		}
		if !strings.Contains(string(out), `unknown -schema "`+schema+`"`) {
			t.Fatalf("-schema %s: stderr does not name the schema:\n%s", schema, out)
		}
	}
}
