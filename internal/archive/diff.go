package archive

import (
	"bytes"
	"os"
	"slices"
	"sort"
	"strconv"

	"repro/internal/persist"
)

// DiffReport compares two campaign archives keyed by content hash. The
// content address makes the comparison sharp: a key names exactly one
// measurement (scenario + result-relevant options), so two archives
// that share a key must hold byte-identical documents by the
// bit-identity contract — any divergence means the pipeline's behaviour
// changed between the runs that wrote them (a code regression, a
// toolchain drift, or corruption), which is precisely what a CI
// regression gate wants to detect. Keys present on one side only are
// coverage differences, not regressions.
type DiffReport struct {
	// Dir and Base are the two archive directories ("here" vs "base").
	Dir  string `json:"dir"`
	Base string `json:"base"`
	// Common counts keys archived on both sides; OnlyHere / OnlyBase
	// count coverage differences (with the keys listed).
	Common       int      `json:"common"`
	OnlyHere     int      `json:"only_here"`
	OnlyBase     int      `json:"only_base"`
	OnlyHereKeys []string `json:"only_here_keys,omitempty"`
	OnlyBaseKeys []string `json:"only_base_keys,omitempty"`
	// Unreadable counts common keys whose document could not be loaded
	// on one side (torn or mid-rename); they are neither confirmed
	// identical nor regressions.
	Unreadable int `json:"unreadable"`
	// RegressionCount and Regressions report common keys whose
	// documents diverge. Zero regressions means every shared
	// measurement reproduced bit-identically.
	RegressionCount int          `json:"regression_count"`
	Regressions     []Regression `json:"regressions,omitempty"`
}

// Regression is one diverging key: the same declared measurement
// produced different archived content in the two archives.
type Regression struct {
	Key string `json:"key"`
	// Field names the first divergence found: "q", "nmi", "n",
	// "labels", "sim_time" or "bytes" (identical headline fields but
	// differing raw bytes, e.g. the NMI series).
	Field string `json:"field"`
	// Here and Base render the diverging values.
	Here string `json:"here"`
	Base string `json:"base"`
}

// Diff compares this archive against the one at baseDir. Both sides
// are enumerated with the same torn-tolerant read path, so diffing
// against (or from) a live archive is safe; in-flight keys simply show
// up as coverage differences until their rename lands.
func (s *Store) Diff(baseDir string) (*DiffReport, error) {
	base, err := Open(baseDir)
	if err != nil {
		return nil, err
	}
	hereKeys, err := s.archivedKeys()
	if err != nil {
		return nil, err
	}
	baseKeys, err := base.archivedKeys()
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{Dir: s.Dir(), Base: base.Dir()}
	inBase := make(map[string]bool, len(baseKeys))
	for _, k := range baseKeys {
		inBase[k] = true
	}
	inHere := make(map[string]bool, len(hereKeys))
	for _, k := range hereKeys {
		inHere[k] = true
		if !inBase[k] {
			rep.OnlyHereKeys = append(rep.OnlyHereKeys, k)
			continue
		}
		rep.Common++
		if r, ok, readable := compareArchives(s.at.Archive(k), base.at.Archive(k), k); !readable {
			rep.Unreadable++
		} else if ok {
			rep.Regressions = append(rep.Regressions, r)
		}
	}
	for _, k := range baseKeys {
		if !inHere[k] {
			rep.OnlyBaseKeys = append(rep.OnlyBaseKeys, k)
		}
	}
	sort.Strings(rep.OnlyHereKeys)
	sort.Strings(rep.OnlyBaseKeys)
	sort.Slice(rep.Regressions, func(i, j int) bool { return rep.Regressions[i].Key < rep.Regressions[j].Key })
	rep.OnlyHere = len(rep.OnlyHereKeys)
	rep.OnlyBase = len(rep.OnlyBaseKeys)
	rep.RegressionCount = len(rep.Regressions)
	return rep, nil
}

// archivedKeys lists the keys with an archive document on disk, sorted.
func (s *Store) archivedKeys() ([]string, error) {
	var keys []string
	err := archived(s.at, func(key string, _ os.DirEntry) { keys = append(keys, key) })
	return keys, err
}

// compareArchives byte-compares the two documents at one key and, when
// they diverge, digs into the decoded fields for a regression report a
// human can act on. readable=false means one side could not be read
// (torn or mid-rename) and no verdict is possible.
func compareArchives(herePath, basePath, key string) (r Regression, diverged, readable bool) {
	hereBytes, err1 := os.ReadFile(herePath)
	baseBytes, err2 := os.ReadFile(basePath)
	if err1 != nil || err2 != nil {
		return Regression{}, false, false
	}
	if bytes.Equal(hereBytes, baseBytes) {
		return Regression{}, false, true
	}
	r = Regression{Key: key, Field: "bytes",
		Here: formatFloat(float64(len(hereBytes))), Base: formatFloat(float64(len(baseBytes)))}
	hereDoc, err1 := persist.LoadResult(herePath)
	baseDoc, err2 := persist.LoadResult(basePath)
	if err1 != nil || err2 != nil {
		return Regression{}, false, false
	}
	switch {
	case hereDoc.Q != baseDoc.Q:
		r.Field, r.Here, r.Base = "q", formatFloat(hereDoc.Q), formatFloat(baseDoc.Q)
	case (hereDoc.NMI == nil) != (baseDoc.NMI == nil),
		hereDoc.NMI != nil && baseDoc.NMI != nil && *hereDoc.NMI != *baseDoc.NMI:
		r.Field, r.Here, r.Base = "nmi", formatNMI(hereDoc.NMI), formatNMI(baseDoc.NMI)
	case hereDoc.N != baseDoc.N:
		r.Field, r.Here, r.Base = "n", formatFloat(float64(hereDoc.N)), formatFloat(float64(baseDoc.N))
	case !slices.Equal(hereDoc.Labels, baseDoc.Labels):
		r.Field, r.Here, r.Base = "labels", "differ", "differ"
	case hereDoc.SimTime != baseDoc.SimTime:
		r.Field, r.Here, r.Base = "sim_time", formatFloat(hereDoc.SimTime), formatFloat(baseDoc.SimTime)
	}
	return r, true, true
}

// formatFloat renders a float shortest-round-trip, the same exact,
// byte-stable form the campaign aggregate uses.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatNMI(v *float64) string {
	if v == nil {
		return "absent"
	}
	return formatFloat(*v)
}
