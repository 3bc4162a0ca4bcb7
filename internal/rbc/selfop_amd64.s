#include "textflag.h"

// The self-operator kernels. Every product and every sum rounds where the
// Go loop's statement rounds (VMULPD, then VADDPD), without FMA, and every
// sum starts from +0 and runs in the Go loop's order, so the kernels equal
// rotateGo, rowsGo and applyGo bit for bit. n = 2p(p+1) is a multiple of
// four, so there are no partial lane groups.

// func rotateAVX2(dst [][4]float64, rmat []float64, src [][4]float64)
//
// dst[r] = Σ_k R[r,k]·src[k], the node's four fields in the four lanes of
// one register; four rows of R per pass share each load of src[k].
TEXT ·rotateAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ rmat_base+24(FP), SI
	MOVQ src_base+48(FP), DX
	MOVQ src_len+56(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	MOVQ CX, R9

rotrows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX
	LEAQ (SI)(R8*2), BX
	MOVQ DX, R10
	MOVQ CX, R11

rotk:
	VMOVUPD (R10), Y4
	VBROADCASTSD (AX), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (AX)(R8*1), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD (BX), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD (BX)(R8*1), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $32, R10
	DECQ R11
	JNZ rotk
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, R9
	JNZ rotrows
	VZEROUPPER
	RET

// func rowsAVX2(rows, rmat []float64, m [][6]float64)
//
// rows[e·n+k] = Σ_r m[r][e]·R[r,k] for the six entries e: four consecutive
// k in the lanes, the six sums in Y0–Y5 over the whole of r, two rows of R
// per step with (m[r][e]·R[r,k] + m[r+1][e]·R[r+1,k]) formed before it is
// added, as rowsGo's statement does.
TEXT ·rowsAVX2(SB), NOSPLIT, $0-72
	MOVQ rows_base+0(FP), DI
	MOVQ rmat_base+24(FP), SI
	MOVQ m_base+48(FP), DX
	MOVQ m_len+56(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	MOVQ CX, R12
	SHRQ $2, R12

rowsgroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ CX, R11
	SHRQ $1, R11

rowspair:
	VMOVUPD (AX), Y6
	VMOVUPD (AX)(R8*1), Y7
	VBROADCASTSD 0(BX), Y8
	VMULPD Y6, Y8, Y8
	VBROADCASTSD 48(BX), Y9
	VMULPD Y7, Y9, Y9
	VADDPD Y9, Y8, Y8
	VADDPD Y8, Y0, Y0
	VBROADCASTSD 8(BX), Y10
	VMULPD Y6, Y10, Y10
	VBROADCASTSD 56(BX), Y11
	VMULPD Y7, Y11, Y11
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y1, Y1
	VBROADCASTSD 16(BX), Y12
	VMULPD Y6, Y12, Y12
	VBROADCASTSD 64(BX), Y13
	VMULPD Y7, Y13, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y2, Y2
	VBROADCASTSD 24(BX), Y14
	VMULPD Y6, Y14, Y14
	VBROADCASTSD 72(BX), Y15
	VMULPD Y7, Y15, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y3, Y3
	VBROADCASTSD 32(BX), Y8
	VMULPD Y6, Y8, Y8
	VBROADCASTSD 80(BX), Y9
	VMULPD Y7, Y9, Y9
	VADDPD Y9, Y8, Y8
	VADDPD Y8, Y4, Y4
	VBROADCASTSD 40(BX), Y10
	VMULPD Y6, Y10, Y10
	VBROADCASTSD 88(BX), Y11
	VMULPD Y7, Y11, Y11
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y5, Y5
	LEAQ (AX)(R8*2), AX
	ADDQ $96, BX
	DECQ R11
	JNZ rowspair
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	LEAQ (DI)(R8*2), R10
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R10)(R8*1)
	LEAQ (R10)(R8*2), R10
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, (R10)(R8*1)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ R12
	JNZ rowsgroup
	VZEROUPPER
	RET

// func applyAVX2(u0, u1, u2, s, f0, f1, f2 []float64)
//
// u_a[t] = Σ_b Σ_k S[a,t,b,k]·f_b[k] on the interleaved storage: a group's
// four targets in the lanes, its three blocks (a = 0, 1, 2; 24n² bytes
// apart) side by side sharing each broadcast of f_b[k]. A group's block is
// walked in (b, k) order, 32 bytes per step, and ends where the next
// group's begins.
TEXT ·applyAVX2(SB), NOSPLIT, $0-168
	MOVQ s_base+72(FP), SI
	MOVQ u0_len+8(FP), CX
	MOVQ CX, R8
	IMULQ CX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R8
	XORQ R9, R9
	MOVQ CX, R12
	SHRQ $2, R12

applygroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	LEAQ f0_base+96(FP), BX
	MOVQ $3, R10

applyb:
	MOVQ (BX), DX
	MOVQ CX, R11

applyk:
	VBROADCASTSD (DX), Y3
	VMULPD (SI), Y3, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (SI)(R8*1), Y3, Y5
	VADDPD Y5, Y1, Y1
	VMULPD (SI)(R8*2), Y3, Y6
	VADDPD Y6, Y2, Y2
	ADDQ $8, DX
	ADDQ $32, SI
	DECQ R11
	JNZ applyk
	ADDQ $24, BX
	DECQ R10
	JNZ applyb
	MOVQ u0_base+0(FP), AX
	VMOVUPD Y0, (AX)(R9*1)
	MOVQ u1_base+24(FP), AX
	VMOVUPD Y1, (AX)(R9*1)
	MOVQ u2_base+48(FP), AX
	VMOVUPD Y2, (AX)(R9*1)
	ADDQ $32, R9
	DECQ R12
	JNZ applygroup
	VZEROUPPER
	RET
