package repro

import (
	"path/filepath"
	"testing"
)

// The archive facade end to end: run a small campaign, then query it
// back through OpenArchive and the Store's Status and Diff without ever
// touching runs/ paths directly.
func TestArchiveFacadeQueriesCampaignOutput(t *testing.T) {
	c, err := NewCampaign("facade").
		Scenario("2x2").
		Iterations(2).
		Seeds(1, 2).
		Scales(0.02).
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "camp")
	out, err := RunCampaign(c, CampaignOptions{OutDir: dir, Jobs: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(out.Runs) {
		t.Fatalf("archive lists %d runs, campaign ran %d", len(runs), len(out.Runs))
	}
	detail, err := st.Get(out.Runs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Doc == nil {
		t.Fatal("archived document missing")
	}

	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Executed != 2 || status.Archived != 2 || !status.Finalized {
		t.Fatalf("status wrong: %+v", status)
	}

	rep, err := st.Diff(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Common != 2 || rep.RegressionCount != 0 {
		t.Fatalf("self-diff not clean: %+v", rep)
	}

	m, err := st.Marginals("seed")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells != 2 || len(m.Points) != 2 {
		t.Fatalf("seed marginal wrong: %+v", m)
	}
}
