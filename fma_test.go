package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// measuredPackages are the packages whose floating-point results a
// content key stands for: the simulator, the measurement and phase 2.
var measuredPackages = []string{
	"./internal/sim", "./internal/simnet", "./internal/bittorrent", "./internal/core",
	"./internal/graph", "./internal/cluster", "./internal/nmi", "./internal/scenario",
	"./internal/dynamics",
}

// fusedMultiplyAdd matches one instruction of a -S listing that is a
// fused multiply-add — FMADD, FMSUB, FNMADD or FNMSUB, with the S/D size
// suffix arm64 and riscv64 spell — and captures its file:line and mnemonic.
var fusedMultiplyAdd = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD]?)\s`)

// TestNoImplicitFusedMultiplyAdd fails for every expression in the
// measured packages that gc compiles to a fused multiply-add on some
// architecture. The Go spec lets a compiler fuse x*y + z into one
// rounding; gc does so on arm64, ppc64le, s390x and riscv64, never on
// amd64, so a fused site gives those machines other bits under the same
// content key. Writing the product as float64(x*y) rounds it explicitly
// and prevents the fusion. The packages are cross-compiled with the
// local toolchain and only their assembly listings are read: nothing
// runs on the target architecture.
func TestNoImplicitFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the measured packages for four architectures")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]map[string]int{} // file:line → "arch MNEMONIC" → count
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, measuredPackages...)...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		for _, m := range fusedMultiplyAdd.FindAllStringSubmatch(string(out), -1) {
			site := m[1]
			if rel, err := filepath.Rel(wd, site); err == nil && !strings.HasPrefix(rel, "..") {
				site = filepath.ToSlash(rel)
			}
			if sites[site] == nil {
				sites[site] = map[string]int{}
			}
			sites[site][arch+" "+m[2]]++
		}
	}
	var names []string
	for site := range sites {
		names = append(names, site)
	}
	sort.Strings(names)
	for _, site := range names {
		var on []string
		for inst, n := range sites[site] {
			on = append(on, fmt.Sprintf("%s ×%d", inst, n))
		}
		sort.Strings(on)
		t.Errorf("%s: fused multiply-add (%s): write the product as float64(x*y)", site, strings.Join(on, ", "))
	}
}
