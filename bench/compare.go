package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

// machine is the context a set was taken on. Numbers from differing
// contexts are not comparable and -compare refuses them.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func machineContext(seed int64) machine {
	c := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				c.Commit = s.Value
			}
		}
	}
	return c
}

// comparable reports why two contexts cannot be compared ("" if they
// can). The commit is what a comparison is usually about, so it may
// differ.
func (c machine) comparable(o machine) string {
	switch {
	case c.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", c.NProc, o.NProc)
	case c.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", c.GOMAXPROCS, o.GOMAXPROCS)
	case c.GoVersion != o.GoVersion:
		return fmt.Sprintf("Go %s vs %s", c.GoVersion, o.GoVersion)
	case c.Seed != o.Seed:
		return fmt.Sprintf("seed %d vs %d", c.Seed, o.Seed)
	}
	return ""
}

// setFile is what -out and -set write: the machine context and one
// result per workload run.
type setFile struct {
	Context machine   `json:"context"`
	Results []*result `json:"results"`
}

func writeSet(path string, s *setFile) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOnce runs one workload untraced in a process of its own.
func runOnce(name string, seed int64, seconds float64, work string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	part := filepath.Join(work, "part-"+name+".json")
	defer os.Remove(part)
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0", "-work", work, "-out", part)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	fmt.Printf("== %s\n", name)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	one, err := readSet(part)
	if err != nil {
		return nil, err
	}
	if len(one.Results) != 1 {
		return nil, fmt.Errorf("%s: %d results in %s", name, len(one.Results), part)
	}
	return one.Results[0], nil
}

// runSet runs every workload once, untraced, each in a process of its
// own, and writes the set to path.
func runSet(path string, seed int64, seconds float64, work string) error {
	set := &setFile{Context: machineContext(seed)}
	for _, name := range workloadNames() {
		res, err := runOnce(name, seed, seconds, work)
		if err != nil {
			return err
		}
		set.Results = append(set.Results, res)
	}
	return writeSet(path, set)
}

// mergeRuns folds several runs of one workload into one result: each
// metric becomes the median of the runs' values, with their quartiles.
func mergeRuns(runs []*result) *result {
	merged := &result{Workload: runs[0].Workload, Correct: true, Metrics: map[string]metric{}}
	for name, m := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name].Value
		}
		merged.Metrics[name] = summarize(m.Unit, vals)
	}
	for _, r := range runs {
		merged.Attempted += r.Attempted
		merged.Failed += r.Failed
		merged.Correct = merged.Correct && r.Correct
	}
	return merged
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares B against A for a metric whose direction is dir
// ("lower" or "higher") and whose regression bound is a share of A's
// median. A pair whose own spread (interquartile range over median, the
// wider of the two sides) exceeds the bound cannot be called unchanged:
// it is unresolved unless the medians differ by more than the bound.
func verdict(a, b metric, dir string, bound float64) string {
	if a.Value == 0 {
		return unresolved
	}
	change := (b.Value - a.Value) / a.Value
	if dir == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return worse
	case change < -bound:
		return better
	case max(spread(a), spread(b)) > bound:
		return unresolved
	}
	return same
}

func spread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

type row struct {
	workload, metric string
	a, b             metric
	bound            float64
	verdict          string
}

// compareSets yields one row per (workload, end-to-end metric) present
// on both sides, and the failed-operation counts as rows of their own.
func compareSets(a, b *setFile) ([]row, error) {
	if why := a.Context.comparable(b.Context); why != "" {
		return nil, fmt.Errorf("refusing to compare across machine contexts: %s", why)
	}
	byName := make(map[string]*result)
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	var rows []row
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok || ra.Traced || rb.Traced {
			continue
		}
		for _, def := range e2eDefs {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			rows = append(rows, row{ra.Workload, def.Name, ma, mb, def.Bound, verdict(ma, mb, def.Better, def.Bound)})
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			v := worse
			if rb.Failed < ra.Failed {
				v = better
			}
			rows = append(rows, row{ra.Workload, "failed_operations",
				metric{Unit: "count", Value: float64(ra.Failed), N: 1}, metric{Unit: "count", Value: float64(rb.Failed), N: 1}, 0, v})
		}
	}
	return rows, nil
}

func printRows(w io.Writer, rows []row) error {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1 q3] n\tB median [q1 q3] n\tchange\tbound\tverdict")
	for _, r := range rows {
		change := 0.0
		if r.a.Value != 0 {
			change = (r.b.Value - r.a.Value) / r.a.Value * 100
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g %.5g] %d\t%.5g [%.5g %.5g] %d\t%+.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.a.Unit, r.a.Value, r.a.Q1, r.a.Q3, r.a.N, r.b.Value, r.b.Q1, r.b.Q3, r.b.N, change, r.bound*100, r.verdict)
	}
	return tw.Flush()
}

func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s commit %s\nB: %s commit %s\n%d cores, GOMAXPROCS %d, %s, seed %d\n",
		pathA, a.Context.Commit, pathB, b.Context.Commit, a.Context.NProc, a.Context.GOMAXPROCS, a.Context.GoVersion, a.Context.Seed)
	rows, err := compareSets(a, b)
	if err != nil {
		return err
	}
	return printRows(w, rows)
}

// selfCheckRounds is how many runs of each workload make up each of the
// self-check's two sets. One run per set is not enough on a shared
// sandbox: whole minutes run 10-30% slow, and a set taken in one reads
// "worse" than its twin.
const selfCheckRounds = 3

// selfCheck takes two full sets of this build on this machine and fails
// unless every pair agrees within its bound and nothing failed. The two
// sets' runs alternate, workload by workload, so that both see the same
// minutes of the machine.
func selfCheck(seed int64, seconds float64, work string) error {
	sets := [2]*setFile{{Context: machineContext(seed)}, {Context: machineContext(seed)}}
	for _, name := range workloadNames() {
		var runs [2][]*result
		for round := 0; round < selfCheckRounds; round++ {
			for side := range runs {
				res, err := runOnce(name, seed, seconds, work)
				if err != nil {
					return err
				}
				runs[side] = append(runs[side], res)
			}
		}
		for side := range sets {
			sets[side].Results = append(sets[side].Results, mergeRuns(runs[side]))
		}
	}
	paths := [2]string{filepath.Join(work, "selfcheck-A.json"), filepath.Join(work, "selfcheck-B.json")}
	for side, path := range paths {
		if err := writeSet(path, sets[side]); err != nil {
			return err
		}
	}
	rows, err := compareSets(sets[0], sets[1])
	if err != nil {
		return err
	}
	if err := printRows(os.Stdout, rows); err != nil {
		return err
	}
	disagree := 0
	for _, r := range rows {
		if r.verdict == worse || r.verdict == better {
			disagree++
		}
	}
	if disagree > 0 {
		return fmt.Errorf("selfcheck: %d of %d pairs disagree beyond their bound or failed operations", disagree, len(rows))
	}
	fmt.Printf("selfcheck: %d pairs agree within their bounds; sets kept at %s and %s\n", len(rows), paths[0], paths[1])
	return nil
}
