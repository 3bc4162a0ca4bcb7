#include "textflag.h"

// func rigidWallBlockAVX2(g, y, f []float64, x, acc *[12]float64)
//
// Lane l of every YMM register is target row 4b+l. Per source s, in node
// order: r = x − y_s, t = (r0·f0 + r1·f1) + r2·f2, v = g·t, a += v·r —
// VSUBPD/VMULPD/VADDPD only, each rounding where the Go loop rounds. The
// operator streams from memory (8 B per pair); a prefetch 2 KB ahead of the
// load keeps it ahead of the loop across page boundaries.
TEXT ·rigidWallBlockAVX2(SB), NOSPLIT, $0-88
	MOVQ g_base+0(FP), SI
	MOVQ g_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ f_base+48(FP), DX
	MOVQ x+72(FP), R8
	MOVQ acc+80(FP), R9
	SHRQ $2, CX
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	TESTQ CX, CX
	JZ done

loop:
	PREFETCHT0 2048(SI)
	VBROADCASTSD 0(DI), Y6
	VSUBPD Y6, Y0, Y6
	VBROADCASTSD 8(DI), Y7
	VSUBPD Y7, Y1, Y7
	VBROADCASTSD 16(DI), Y8
	VSUBPD Y8, Y2, Y8
	VBROADCASTSD 0(DX), Y10
	VMULPD Y10, Y6, Y10
	VBROADCASTSD 8(DX), Y11
	VMULPD Y11, Y7, Y11
	VADDPD Y11, Y10, Y10
	VBROADCASTSD 16(DX), Y11
	VMULPD Y11, Y8, Y11
	VADDPD Y11, Y10, Y10
	VMULPD (SI), Y10, Y10
	VMULPD Y10, Y6, Y6
	VADDPD Y6, Y3, Y3
	VMULPD Y10, Y7, Y7
	VADDPD Y7, Y4, Y4
	VMULPD Y10, Y8, Y8
	VADDPD Y8, Y5, Y5
	ADDQ $32, SI
	ADDQ $24, DI
	ADDQ $24, DX
	DECQ CX
	JNZ loop

done:
	VMOVUPD Y3, 0(R9)
	VMOVUPD Y4, 32(R9)
	VMOVUPD Y5, 64(R9)
	VZEROUPPER
	RET
