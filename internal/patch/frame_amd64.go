package patch

import "rbcflow/internal/cpuid"

// useAVX2 selects the assembly frame kernel, once, from what the CPU and
// the operating system support. Tests set it to false to run the portable
// loop.
var useAVX2 = cpuid.AVX2()

// tensorFrameAVX2 is tensorFrameGo on a 6×6 grid in AVX2, each sum in the
// Go loop's order and without FMA; lu and lv are the u and v lines'
// TabulateFrameLines tables, t is scratch for two padded value rows;
// frame_amd64.s.
//
//go:noescape
func tensorFrameAVX2(val [][3]float64, lu, lv, wu, wv, t, q []float64, n int, scale float64)

// tensorEval3AVX2 is tensorFields' positions on a 3×3 grid in AVX2, each
// sum in the Go loop's order and without FMA; lu and lv are the u and v
// lines' TabulateLines tables, t is scratch for three padded value rows;
// frame_amd64.s.
//
//go:noescape
func tensorEval3AVX2(val [][3]float64, lu, lv, t []float64, n int, pos [][3]float64)
