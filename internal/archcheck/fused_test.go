package archcheck

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// fusedOps are the arm64 fused multiply-add instructions on float64. The Go
// spec lets a compiler fuse x*y + z into one of them, and the arm64 compiler
// does; amd64 (below GOAMD64=v3) never does, and the AVX2 kernels use no FMA.
// A fused op rounds once where the separate product and sum round twice, so
// each is a place where an arm64 build may produce other bits than amd64 —
// and the pinned plan and kernel digests, and a plan fingerprint's promise
// of identical bytes, hold across architectures only where there is none.
var fusedOps = []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD"}

// fusedAllowlist is the number of fused ops the arm64 compiler emits per
// package of internal/. An entry may only shrink: wrap a product in
// float64(x*y) to round it on its own (as the kernels' reference loops do)
// and lower the entry to the new count. A package that is not listed may
// emit none.
var fusedAllowlist = map[string]int{
	"rbcflow/internal/bie":       103,
	"rbcflow/internal/collision": 65,
	"rbcflow/internal/fft":       6,
	"rbcflow/internal/fmm":       25,
	"rbcflow/internal/forest":    8,
	"rbcflow/internal/la":        15,
	"rbcflow/internal/network":   267,
	"rbcflow/internal/par":       2,
	"rbcflow/internal/patch":     77,
	"rbcflow/internal/scenario":  2,
	"rbcflow/internal/sht":       20,
	"rbcflow/internal/surrogate": 15,
	"rbcflow/internal/telemetry": 1,
	"rbcflow/internal/vessel":    78,
}

// TestArm64FusedOpsAllowlisted compiles ./internal/... for arm64 with the
// assembly listing on (GOARCH=arm64 go build -gcflags=-S; no network, and
// with a warm build cache a few seconds) and holds every package's count of
// fused ops to its allowlist entry.
func TestArm64FusedOpsAllowlisted(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command at %s: %v", goBin, err)
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", "rbcflow/internal/...")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	counts := map[string]int{}
	pkg := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# "); ok {
			pkg = name
			continue
		}
		for _, f := range strings.Fields(line) {
			for _, op := range fusedOps {
				if f == op {
					counts[pkg]++
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		// Every listed package fuses today, so an empty count means the
		// listing was not read, not that the fusion is gone.
		t.Fatalf("no fused op in the arm64 listing (%d bytes): has its format changed?", len(out))
	}
	var pkgs []string
	for p := range counts {
		pkgs = append(pkgs, p)
	}
	for p := range fusedAllowlist {
		if _, ok := counts[p]; !ok {
			pkgs = append(pkgs, p)
		}
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		got, allowed := counts[p], fusedAllowlist[p]
		switch {
		case got > allowed:
			t.Errorf("%s: %d fused ops on arm64, allowlist %d: round the new products on their own", p, got, allowed)
		case got < allowed:
			t.Logf("%s: %d fused ops on arm64, allowlist %d: lower the entry", p, got, allowed)
		}
	}
}
