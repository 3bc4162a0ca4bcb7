package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX2MatchesKernelReport: on Linux/amd64 the CPUID + XGETBV check agrees
// with the flags the kernel lists (it lists avx2 only when it saves the YMM
// state); elsewhere AVX2 is false.
func TestAVX2MatchesKernelReport(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2() {
			t.Fatal("AVX2 reported off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	want := false
	for _, f := range flags {
		want = want || f == "avx2"
	}
	if AVX2() != want {
		t.Errorf("AVX2() = %v, /proc/cpuinfo lists avx2: %v", AVX2(), want)
	}
}
