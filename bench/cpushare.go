package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// cpuShares turns a CPU profile of the repetitions into cpu_share.*:
// the flat samples of `go tool pprof -top`, summed by package prefix, as
// percentages of all samples. Without a go toolchain on PATH the
// metrics stay absent (reported as 0) and the reason is returned.
func cpuShares(profile string, lv layerValues) error {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("go is not on PATH")
	}
	binary, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(goTool, "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", binary, profile)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := sumTop(string(out))
	if err != nil {
		return err
	}
	for name, v := range shares {
		lv[name] = v
	}
	return nil
}

// sumTop parses pprof's -top table ("flat flat% sum% cum cum% name").
func sumTop(top string) (map[string]float64, error) {
	_, table, found := strings.Cut(top, "flat%")
	if !found {
		return nil, fmt.Errorf("no table in pprof -top output")
	}
	shares := map[string]float64{"cpu_share.other": 0}
	for name := range cpuSharePackages {
		shares[name] = 0
	}
	lines := strings.Split(table, "\n")[1:]
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		shares[shareOf(fields[5])] += pct
	}
	return shares, nil
}

// shareOf names the cpu_share.* metric a function's samples count toward.
func shareOf(function string) string {
	for name, prefixes := range cpuSharePackages {
		for _, prefix := range prefixes {
			if strings.HasPrefix(function, prefix) {
				return name
			}
		}
	}
	return "cpu_share.other"
}
