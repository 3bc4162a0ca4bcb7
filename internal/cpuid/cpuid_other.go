//go:build !amd64

package cpuid

func detectAVX2() bool { return false }
