// Command jsonlcheck validates JSONL files: every line must be a
// well-formed JSON object, and the whole file must satisfy a schema. It
// is the strict complement to the tolerant readers — queries skip torn
// lines by design, so CI needs a checker that refuses them.
//
// Usage:
//
//	jsonlcheck [-schema trace|events] FILE.jsonl ...
//
// Schemas:
//
//	trace       (default) phase-trace files: at least one span (an
//	            object with a "name") after the header line
//	events      the archive event stream's payload lines: integer ids
//	            strictly increasing from >= 1, a non-empty kind, and
//	            any key a 64-hex content address
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/fleet"
)

func main() {
	schema := flag.String("schema", "trace", "file schema to enforce: trace or events")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: jsonlcheck [-schema trace|events] FILE.jsonl ...")
		os.Exit(2)
	}
	var lineCheck func(obj map[string]any, st *fileState) error
	var fileCheck func(st *fileState) error
	switch *schema {
	case "trace":
		lineCheck, fileCheck = traceLine, traceFile
	case "events":
		lineCheck, fileCheck = eventsLine, noFileCheck
	default:
		fmt.Fprintf(os.Stderr, "jsonlcheck: unknown -schema %q\n", *schema)
		os.Exit(2)
	}
	bad := 0
	for _, path := range flag.Args() {
		if err := check(path, lineCheck, fileCheck); err != nil {
			fmt.Fprintf(os.Stderr, "jsonlcheck: %s: %v\n", path, err)
			bad++
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("jsonlcheck: %d files ok (%s)\n", flag.NArg(), *schema)
}

// fileState accumulates across the lines of one file; the schemas use
// it for cross-line invariants (span counts, monotonic ids).
type fileState struct {
	lines  int
	spans  int
	lastID float64
}

func check(path string, lineCheck func(map[string]any, *fileState) error, fileCheck func(*fileState) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	st := &fileState{}
	for sc.Scan() {
		st.lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return fmt.Errorf("line %d: %v", st.lines, err)
		}
		if err := lineCheck(obj, st); err != nil {
			return fmt.Errorf("line %d: %v", st.lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if st.lines == 0 {
		return fmt.Errorf("empty file")
	}
	return fileCheck(st)
}

func noFileCheck(*fileState) error { return nil }

func traceLine(obj map[string]any, st *fileState) error {
	if name, ok := obj["name"].(string); ok && name != "" {
		st.spans++
	}
	return nil
}

func traceFile(st *fileState) error {
	if st.spans == 0 {
		return fmt.Errorf("%d lines but no spans", st.lines)
	}
	return nil
}

func eventsLine(obj map[string]any, st *fileState) error {
	id, ok := obj["id"].(float64)
	if !ok || id < 1 || id != float64(int64(id)) {
		return fmt.Errorf("id must be an integer >= 1, got %v", obj["id"])
	}
	if id <= st.lastID {
		return fmt.Errorf("id %v not strictly increasing (previous %v)", id, st.lastID)
	}
	st.lastID = id
	if kind, ok := obj["kind"].(string); !ok || kind == "" {
		return fmt.Errorf("kind must be a non-empty string, got %v", obj["kind"])
	}
	if raw, present := obj["key"]; present {
		key, ok := raw.(string)
		if !ok || !fleet.IsArchiveKey(key) {
			return fmt.Errorf("key must be a 64-hex content address, got %v", raw)
		}
	}
	return nil
}
