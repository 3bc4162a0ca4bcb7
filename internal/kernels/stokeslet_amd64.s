#include "textflag.h"

// func stokesletGroupsAVX2(p []float64, srcPos [][3]float64, srcQ []float64, c float64)
//
// p holds lane groups of 24 values: the x, y and z planes of four targets,
// then their three sums. Lane l of every YMM register is target l of the
// group. Per source s, in order, with the source's position y and strength
// q broadcast:
//
//	r  = x − y
//	r² = (rx·rx + ry·ry) + rz·rz
//	inv = 1/√r², inv3 = inv/r²   (VSQRTPD and VDIVPD: correctly rounded)
//	rdotf = (rx·q0 + ry·q1) + rz·q2
//	a_i = a_i + c·(q_i·inv + (r_i·rdotf)·inv3)
//
// VSUBPD/VMULPD/VADDPD only, each rounding where the Go loop rounds. A lane
// at r² = 0, which the Go loop skips, keeps its old sum through VBLENDVPD:
// adding its (NaN) terms or +0 instead would change the bits.
//
// Registers: Y0–Y2 target planes, Y3–Y5 sums, Y6 c, Y14 1.0, Y15 the
// r² ≠ 0 mask; Y7–Y13 per-source temporaries.
TEXT ·stokesletGroupsAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), R8
	MOVQ srcPos_base+24(FP), SI
	MOVQ srcPos_len+32(FP), R9
	MOVQ srcQ_base+48(FP), DX
	VBROADCASTSD c+72(FP), Y6
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X14
	VBROADCASTSD X14, Y14
	TESTQ R9, R9
	JZ done
	TESTQ R8, R8
	JZ done

group:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R9, CX

source:
	VBROADCASTSD 0(R10), Y7
	VSUBPD Y7, Y0, Y7
	VBROADCASTSD 8(R10), Y8
	VSUBPD Y8, Y1, Y8
	VBROADCASTSD 16(R10), Y9
	VSUBPD Y9, Y2, Y9
	VMULPD Y7, Y7, Y10
	VMULPD Y8, Y8, Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y9, Y9, Y11
	VADDPD Y11, Y10, Y10
	VXORPD Y15, Y15, Y15
	VCMPPD $4, Y15, Y10, Y15
	VSQRTPD Y10, Y11
	VDIVPD Y11, Y14, Y11
	VDIVPD Y10, Y11, Y10

	// rdotf
	VBROADCASTSD 0(R11), Y12
	VMULPD Y12, Y7, Y12
	VBROADCASTSD 8(R11), Y13
	VMULPD Y13, Y8, Y13
	VADDPD Y13, Y12, Y12
	VBROADCASTSD 16(R11), Y13
	VMULPD Y13, Y9, Y13
	VADDPD Y13, Y12, Y12

	// a0
	VBROADCASTSD 0(R11), Y13
	VMULPD Y11, Y13, Y13
	VMULPD Y12, Y7, Y7
	VMULPD Y10, Y7, Y7
	VADDPD Y7, Y13, Y13
	VMULPD Y13, Y6, Y13
	VADDPD Y13, Y3, Y13
	VBLENDVPD Y15, Y13, Y3, Y3

	// a1
	VBROADCASTSD 8(R11), Y13
	VMULPD Y11, Y13, Y13
	VMULPD Y12, Y8, Y8
	VMULPD Y10, Y8, Y8
	VADDPD Y8, Y13, Y13
	VMULPD Y13, Y6, Y13
	VADDPD Y13, Y4, Y13
	VBLENDVPD Y15, Y13, Y4, Y4

	// a2
	VBROADCASTSD 16(R11), Y13
	VMULPD Y11, Y13, Y13
	VMULPD Y12, Y9, Y9
	VMULPD Y10, Y9, Y9
	VADDPD Y9, Y13, Y13
	VMULPD Y13, Y6, Y13
	VADDPD Y13, Y5, Y13
	VBLENDVPD Y15, Y13, Y5, Y5

	ADDQ $24, R10
	ADDQ $24, R11
	DECQ CX
	JNZ source

	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	ADDQ $192, DI
	SUBQ $24, R8
	JNZ group

done:
	VZEROUPPER
	RET
