package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := &Table{
		Title:  "Example",
		Header: []string{"dataset", "NMI"},
	}
	tab.AddRow("B", 1.0)
	tab.AddRow("BGTL", 0.87)
	out := tab.String()
	if !strings.Contains(out, "## Example") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5 (title, header, sep, 2 rows)", len(lines))
	}
	// Columns align: "NMI" starts at the same offset in every row.
	idx := strings.Index(lines[1], "NMI")
	if idx < 0 {
		t.Fatal("missing header")
	}
	if lines[3][:idx] != "B     " && !strings.HasPrefix(lines[3], "B") {
		t.Fatalf("row misaligned: %q", lines[3])
	}
	if !strings.Contains(lines[4], "0.87") {
		t.Fatalf("missing value row: %q", lines[4])
	}
}

func TestAddRowFormatsMixedTypes(t *testing.T) {
	tab := &Table{Header: []string{"a", "b", "c"}}
	tab.AddRow(3, 0.123456, "x")
	if tab.Rows[0][0] != "3" || tab.Rows[0][1] != "0.123" || tab.Rows[0][2] != "x" {
		t.Fatalf("row formatting wrong: %v", tab.Rows[0])
	}
}

func TestCaption(t *testing.T) {
	tab := &Table{Header: []string{"x"}, Caption: "lower is better"}
	tab.AddRow(1)
	if !strings.Contains(tab.String(), "(lower is better)") {
		t.Fatal("caption missing")
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("plain", 1)
	tab.AddRow("has,comma", 2)
	tab.AddRow(`has"quote`, 3)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "name,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `"has,comma",2` {
		t.Fatalf("comma row = %q", lines[2])
	}
	if lines[3] != `"has""quote",3` {
		t.Fatalf("quote row = %q", lines[3])
	}
}
