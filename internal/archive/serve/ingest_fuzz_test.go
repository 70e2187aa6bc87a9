package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/fleet"
)

// FuzzIngest posts whatever a remote writer might send to POST /ingest on
// a fresh archive. For any body the handler does not panic and answers
// 200, 400 or 413; a 200's "ingested" is the number of lines appended to
// manifest.log; no appended line is longer than fleet.MaxLine; a fresh
// Snapshot advances over what was appended; and Stamp() moves exactly
// when something was. The seed corpus is in testdata/fuzz/FuzzIngest.
func FuzzIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		st, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHandler(st, Options{Ingest: true})
		stamp := st.Stamp()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("/ingest answered %d: %s", rec.Code, rec.Body)
		}
		log, err := os.ReadFile(campaign.Dir(dir).Log())
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		lines := bytes.Split(log, []byte("\n"))
		if last := lines[len(lines)-1]; len(last) != 0 {
			t.Fatalf("manifest.log ends in a torn line: %q", last)
		}
		lines = lines[:len(lines)-1]
		for i, line := range lines {
			if len(line) > fleet.MaxLine {
				t.Fatalf("appended line %d is %d bytes, over fleet.MaxLine", i, len(line))
			}
		}
		if rec.Code == http.StatusOK {
			var reply struct {
				Ingested *int `json:"ingested"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Ingested == nil {
				t.Fatalf("a 200 without an ingested count (err %v): %s", err, rec.Body)
			}
			if *reply.Ingested != len(lines) {
				t.Fatalf("a 200 says %d ingested, manifest.log gained %d lines", *reply.Ingested, len(lines))
			}
		}
		if err := st.Snapshot().Advance(); err != nil {
			t.Fatalf("a fresh Snapshot does not advance over the ingested archive: %v", err)
		}
		if moved := st.Stamp() != stamp; moved != (len(lines) > 0) {
			t.Fatalf("Stamp() moved %v with %d lines appended", moved, len(lines))
		}
	})
}
