#include "textflag.h"

// frameMask<>+32·(v−1) is the load mask of a group of four whose first v
// lanes are live.
DATA frameMask<>+0(SB)/8, $-1
DATA frameMask<>+8(SB)/8, $0
DATA frameMask<>+16(SB)/8, $0
DATA frameMask<>+24(SB)/8, $0
DATA frameMask<>+32(SB)/8, $-1
DATA frameMask<>+40(SB)/8, $-1
DATA frameMask<>+48(SB)/8, $0
DATA frameMask<>+56(SB)/8, $0
DATA frameMask<>+64(SB)/8, $-1
DATA frameMask<>+72(SB)/8, $-1
DATA frameMask<>+80(SB)/8, $-1
DATA frameMask<>+88(SB)/8, $0
DATA frameMask<>+96(SB)/8, $-1
DATA frameMask<>+104(SB)/8, $-1
DATA frameMask<>+112(SB)/8, $-1
DATA frameMask<>+120(SB)/8, $-1
GLOBL frameMask<>(SB), RODATA|NOPTR, $128

// func tensorFrameAVX2(val [][3]float64, lu, lv, wu, wv, t, q []float64, n int, scale float64)
//
// tensorFrameGo on the 6×6 grid. lu and lv hold two n×6 tables each, node
// a's row of six grid lines: the Lagrange coefficients of the u lines (cuT),
// then their derivative rows (dcuT); the same for the v lines. Every sum runs
// in the Go loop's order and every product and difference rounds where the
// Go loop rounds, without FMA:
//
//  1. Per u line i, the value rows of the patch, 3n contiguous values each:
//     t = Σ_a cu_a·Val[a] and dt = Σ_a cu'_a·Val[a], four values per lane
//     group, the group past 3n loaded under a mask; t and dt are stored
//     padded to whole groups.
//  2. Per u line i, the v lines in lanes (four in Y, two in X):
//     pos = Σ_k cv_k·t[k], ∂u = Σ_k cv_k·dt[k], ∂v = Σ_k cv'_k·t[k], then
//     the positions and the cross product ∂u × ∂v times (wu_i·wv_j)·scale
//     into the six planes of q (36 values each).
//
// Pass 1 takes two lane groups at a time, so that four sums rather than two
// are in flight while each waits on its last addition.
TEXT ·tensorFrameAVX2(SB), NOSPLIT, $0-184
	// R12 = n, R13 = 48n (one table), R14 = 8n.
	MOVQ n+168(FP), R12
	MOVQ R12, R13
	IMULQ $48, R13
	MOVQ R12, R14
	SHLQ $3, R14

	// R14 = 24n, a value row; BX groups of four per row, R10 = 32·BX the
	// padded t row; Y14 the full mask, Y15 the last group's.
	LEAQ (R14)(R14*2), R14
	LEAQ (R12)(R12*2), AX
	LEAQ 3(AX), BX
	SHRQ $2, BX
	MOVQ BX, R10
	SHLQ $5, R10
	MOVQ BX, DX
	SHLQ $2, DX
	SUBQ AX, DX
	NEGQ DX
	ADDQ $3, DX
	SHLQ $5, DX
	LEAQ frameMask<>(SB), AX
	VMOVUPD (AX)(DX*1), Y15
	VPCMPEQQ Y14, Y14, Y14
	XORQ R11, R11

frow:
	MOVQ lu_base+24(FP), R9
	ADDQ R11, R9
	MOVQ val_base+0(FP), SI
	MOVQ t_base+120(FP), R8
	MOVQ BX, DX

fugrp2:
	CMPQ DX, $2
	JLT fugrp1
	VMOVAPD Y14, Y13
	CMPQ DX, $2
	JNE fumask2
	VMOVAPD Y15, Y13

fumask2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	MOVQ SI, DI
	MOVQ R9, AX
	MOVQ R12, CX

fua2:
	VMOVUPD (DI), Y2
	VMASKMOVPD 32(DI), Y13, Y7
	VBROADCASTSD (AX), Y3
	VBROADCASTSD (AX)(R13*1), Y4
	VMULPD Y2, Y3, Y8
	VADDPD Y8, Y0, Y0
	VMULPD Y7, Y3, Y8
	VADDPD Y8, Y5, Y5
	VMULPD Y2, Y4, Y8
	VADDPD Y8, Y1, Y1
	VMULPD Y7, Y4, Y8
	VADDPD Y8, Y6, Y6
	ADDQ R14, DI
	ADDQ $48, AX
	DECQ CX
	JNZ fua2
	VMOVUPD Y0, (R8)
	VMOVUPD Y5, 32(R8)
	VMOVUPD Y1, (R8)(R10*1)
	VMOVUPD Y6, 32(R8)(R10*1)
	ADDQ $64, SI
	ADDQ $64, R8
	SUBQ $2, DX
	JMP fugrp2

fugrp1:
	TESTQ DX, DX
	JZ fvlines
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, DI
	MOVQ R9, AX
	MOVQ R12, CX

fua1:
	VMASKMOVPD (DI), Y15, Y2
	VBROADCASTSD (AX), Y3
	VMULPD Y2, Y3, Y3
	VADDPD Y3, Y0, Y0
	VBROADCASTSD (AX)(R13*1), Y4
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ R14, DI
	ADDQ $48, AX
	DECQ CX
	JNZ fua1
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R8)(R10*1)

fvlines:
	// v lines 0–3.
	MOVQ lv_base+48(FP), SI
	MOVQ t_base+120(FP), DI
	MOVQ R12, CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12

fvk:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R13*1), Y1
	VBROADCASTSD 0(DI), Y2
	VMULPD Y2, Y0, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y2, Y1, Y3
	VADDPD Y3, Y10, Y10
	VBROADCASTSD 8(DI), Y2
	VMULPD Y2, Y0, Y3
	VADDPD Y3, Y5, Y5
	VMULPD Y2, Y1, Y3
	VADDPD Y3, Y11, Y11
	VBROADCASTSD 16(DI), Y2
	VMULPD Y2, Y0, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y2, Y1, Y3
	VADDPD Y3, Y12, Y12
	VBROADCASTSD 0(DI)(R10*1), Y2
	VMULPD Y2, Y0, Y3
	VADDPD Y3, Y7, Y7
	VBROADCASTSD 8(DI)(R10*1), Y2
	VMULPD Y2, Y0, Y3
	VADDPD Y3, Y8, Y8
	VBROADCASTSD 16(DI)(R10*1), Y2
	VMULPD Y2, Y0, Y3
	VADDPD Y3, Y9, Y9
	ADDQ $48, SI
	ADDQ $24, DI
	DECQ CX
	JNZ fvk
	MOVQ q_base+144(FP), AX
	LEAQ (R11)(R11*2), DX
	LEAQ (AX)(DX*2), AX
	VMOVUPD Y4, 0(AX)
	VMOVUPD Y5, 288(AX)
	VMOVUPD Y6, 576(AX)
	VMULPD Y12, Y8, Y0
	VMULPD Y11, Y9, Y1
	VSUBPD Y1, Y0, Y0
	VMULPD Y10, Y9, Y1
	VMULPD Y12, Y7, Y2
	VSUBPD Y2, Y1, Y1
	VMULPD Y11, Y7, Y2
	VMULPD Y10, Y8, Y3
	VSUBPD Y3, Y2, Y2
	MOVQ wu_base+72(FP), DX
	VBROADCASTSD (DX)(R11*1), Y3
	MOVQ wv_base+96(FP), DX
	VMULPD (DX), Y3, Y3
	VBROADCASTSD scale+176(FP), Y4
	VMULPD Y4, Y3, Y3
	VMULPD Y3, Y0, Y0
	VMOVUPD Y0, 864(AX)
	VMULPD Y3, Y1, Y1
	VMOVUPD Y1, 1152(AX)
	VMULPD Y3, Y2, Y2
	VMOVUPD Y2, 1440(AX)

	// v lines 4 and 5.
	MOVQ lv_base+48(FP), SI
	MOVQ t_base+120(FP), DI
	MOVQ R12, CX
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	VXORPD X10, X10, X10
	VXORPD X11, X11, X11
	VXORPD X12, X12, X12

fvk2:
	VMOVUPD 32(SI), X0
	VMOVUPD 32(SI)(R13*1), X1
	VBROADCASTSD 0(DI), Y2
	VMULPD X2, X0, X3
	VADDPD X3, X4, X4
	VMULPD X2, X1, X3
	VADDPD X3, X10, X10
	VBROADCASTSD 8(DI), Y2
	VMULPD X2, X0, X3
	VADDPD X3, X5, X5
	VMULPD X2, X1, X3
	VADDPD X3, X11, X11
	VBROADCASTSD 16(DI), Y2
	VMULPD X2, X0, X3
	VADDPD X3, X6, X6
	VMULPD X2, X1, X3
	VADDPD X3, X12, X12
	VBROADCASTSD 0(DI)(R10*1), Y2
	VMULPD X2, X0, X3
	VADDPD X3, X7, X7
	VBROADCASTSD 8(DI)(R10*1), Y2
	VMULPD X2, X0, X3
	VADDPD X3, X8, X8
	VBROADCASTSD 16(DI)(R10*1), Y2
	VMULPD X2, X0, X3
	VADDPD X3, X9, X9
	ADDQ $48, SI
	ADDQ $24, DI
	DECQ CX
	JNZ fvk2
	MOVQ q_base+144(FP), AX
	LEAQ (R11)(R11*2), DX
	LEAQ (AX)(DX*2), AX
	VMOVUPD X4, 32(AX)
	VMOVUPD X5, 320(AX)
	VMOVUPD X6, 608(AX)
	VMULPD X12, X8, X0
	VMULPD X11, X9, X1
	VSUBPD X1, X0, X0
	VMULPD X10, X9, X1
	VMULPD X12, X7, X2
	VSUBPD X2, X1, X1
	VMULPD X11, X7, X2
	VMULPD X10, X8, X3
	VSUBPD X3, X2, X2
	MOVQ wu_base+72(FP), DX
	VBROADCASTSD (DX)(R11*1), Y3
	MOVQ wv_base+96(FP), DX
	VMULPD 32(DX), X3, X3
	VBROADCASTSD scale+176(FP), Y4
	VMULPD X4, X3, X3
	VMULPD X3, X0, X0
	VMOVUPD X0, 896(AX)
	VMULPD X3, X1, X1
	VMOVUPD X1, 1184(AX)
	VMULPD X3, X2, X2
	VMOVUPD X2, 1472(AX)

	ADDQ $8, R11
	CMPQ R11, $48
	JNE frow
	VZEROUPPER
	RET

// func tensorEval3AVX2(val [][3]float64, lu, lv, t []float64, n int, pos [][3]float64)
//
// tensorFields' positions on a 3×3 grid. lu holds, per basis node a, the
// Lagrange coefficients of the three u lines (three values, 24 bytes), lv
// those of the three v lines. Every sum runs in the Go loop's order, without
// FMA:
//
//  1. The three u lines at once, four values of a value row per lane group,
//     the group past 3n loaded under a mask: t_i = Σ_a cu_ia·Val[a], stored
//     in rows of 32·⌊(3n+4)/4⌋ bytes, so that every t_i[k] has a fourth
//     value after it in the same row.
//  2. x, y, z (and one spare lane) in the lanes of nine accumulators:
//     pos_ij = Σ_k cv_jk·t_i[k], then the three live lanes to pos.
TEXT ·tensorEval3AVX2(SB), NOSPLIT, $0-128
	MOVQ n+96(FP), R12
	LEAQ (R12)(R12*2), AX
	MOVQ AX, R14
	SHLQ $3, R14
	LEAQ 3(AX), BX
	SHRQ $2, BX
	LEAQ 4(AX), R10
	SHRQ $2, R10
	SHLQ $5, R10
	MOVQ BX, DX
	SHLQ $2, DX
	SUBQ AX, DX
	NEGQ DX
	ADDQ $3, DX
	SHLQ $5, DX
	LEAQ frameMask<>(SB), AX
	VMOVUPD (AX)(DX*1), Y15
	VPCMPEQQ Y14, Y14, Y14
	MOVQ val_base+0(FP), SI
	MOVQ t_base+72(FP), R8
	MOVQ BX, DX

eugrp:
	VMOVAPD Y14, Y13
	CMPQ DX, $1
	JNE eumask
	VMOVAPD Y15, Y13

eumask:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	MOVQ SI, DI
	MOVQ lu_base+24(FP), AX
	MOVQ R12, CX

eua:
	VMASKMOVPD (DI), Y13, Y3
	VBROADCASTSD 0(AX), Y4
	VMULPD Y3, Y4, Y4
	VADDPD Y4, Y0, Y0
	VBROADCASTSD 8(AX), Y5
	VMULPD Y3, Y5, Y5
	VADDPD Y5, Y1, Y1
	VBROADCASTSD 16(AX), Y6
	VMULPD Y3, Y6, Y6
	VADDPD Y6, Y2, Y2
	ADDQ R14, DI
	ADDQ $24, AX
	DECQ CX
	JNZ eua
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R8)(R10*1)
	VMOVUPD Y2, (R8)(R10*2)
	ADDQ $32, SI
	ADDQ $32, R8
	DECQ DX
	JNZ eugrp

	MOVQ t_base+72(FP), DI
	MOVQ lv_base+48(FP), AX
	MOVQ R12, CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12

evk:
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R10*1), Y1
	VMOVUPD (DI)(R10*2), Y2
	VBROADCASTSD 0(AX), Y3
	VMULPD Y0, Y3, Y13
	VADDPD Y13, Y4, Y4
	VMULPD Y1, Y3, Y13
	VADDPD Y13, Y7, Y7
	VMULPD Y2, Y3, Y13
	VADDPD Y13, Y10, Y10
	VBROADCASTSD 8(AX), Y3
	VMULPD Y0, Y3, Y13
	VADDPD Y13, Y5, Y5
	VMULPD Y1, Y3, Y13
	VADDPD Y13, Y8, Y8
	VMULPD Y2, Y3, Y13
	VADDPD Y13, Y11, Y11
	VBROADCASTSD 16(AX), Y3
	VMULPD Y0, Y3, Y13
	VADDPD Y13, Y6, Y6
	VMULPD Y1, Y3, Y13
	VADDPD Y13, Y9, Y9
	VMULPD Y2, Y3, Y13
	VADDPD Y13, Y12, Y12
	ADDQ $24, DI
	ADDQ $24, AX
	DECQ CX
	JNZ evk
	MOVQ pos_base+104(FP), DI
	VMOVUPD X4, 0(DI)
	VEXTRACTF128 $1, Y4, X4
	VMOVSD X4, 16(DI)
	VMOVUPD X5, 24(DI)
	VEXTRACTF128 $1, Y5, X5
	VMOVSD X5, 40(DI)
	VMOVUPD X6, 48(DI)
	VEXTRACTF128 $1, Y6, X6
	VMOVSD X6, 64(DI)
	VMOVUPD X7, 72(DI)
	VEXTRACTF128 $1, Y7, X7
	VMOVSD X7, 88(DI)
	VMOVUPD X8, 96(DI)
	VEXTRACTF128 $1, Y8, X8
	VMOVSD X8, 112(DI)
	VMOVUPD X9, 120(DI)
	VEXTRACTF128 $1, Y9, X9
	VMOVSD X9, 136(DI)
	VMOVUPD X10, 144(DI)
	VEXTRACTF128 $1, Y10, X10
	VMOVSD X10, 160(DI)
	VMOVUPD X11, 168(DI)
	VEXTRACTF128 $1, Y11, X11
	VMOVSD X11, 184(DI)
	VMOVUPD X12, 192(DI)
	VEXTRACTF128 $1, Y12, X12
	VMOVSD X12, 208(DI)
	VZEROUPPER
	RET
