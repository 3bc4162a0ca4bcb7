#include "textflag.h"

// The constants of integrateVelAVX2: −3/(4π) rounded once, as the Go
// constant expression is, and 1.
DATA dlConst<>+0(SB)/8, $0xbfce8ec8a4aeacc4
DATA dlConst<>+8(SB)/8, $0x3ff0000000000000
GLOBL dlConst<>(SB), RODATA|NOPTR, $16

// func corrBlockAVX2(m, phi []float64, acc *[12]float64)
//
// Lane l of every YMM register is target 4b+l of the group. Per source
// node, in order: ϕ₀, ϕ₁, ϕ₂ broadcast, then
// a₀ += (xx·ϕ₀ + xy·ϕ₁) + xz·ϕ₂, a₁ += (xy·ϕ₀ + yy·ϕ₁) + yz·ϕ₂,
// a₂ += (xz·ϕ₀ + yz·ϕ₁) + zz·ϕ₂ — VMULPD/VADDPD only, each rounding where
// the Go loop rounds. One source node is 24 values: six planes of four
// lanes.
TEXT ·corrBlockAVX2(SB), NOSPLIT, $0-56
	MOVQ m_base+0(FP), SI
	MOVQ m_len+8(FP), CX
	MOVQ phi_base+24(FP), DI
	MOVQ acc+48(FP), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	TESTQ CX, CX
	JZ corrdone

corrloop:
	VBROADCASTSD 0(DI), Y3
	VBROADCASTSD 8(DI), Y4
	VBROADCASTSD 16(DI), Y5
	VMOVUPD 32(SI), Y7
	VMOVUPD 64(SI), Y9
	VMOVUPD 128(SI), Y10
	VMULPD (SI), Y3, Y6
	VMULPD Y7, Y4, Y8
	VADDPD Y8, Y6, Y6
	VMULPD Y9, Y5, Y8
	VADDPD Y8, Y6, Y6
	VADDPD Y6, Y0, Y0
	VMULPD Y7, Y3, Y6
	VMULPD 96(SI), Y4, Y8
	VADDPD Y8, Y6, Y6
	VMULPD Y10, Y5, Y8
	VADDPD Y8, Y6, Y6
	VADDPD Y6, Y1, Y1
	VMULPD Y9, Y3, Y6
	VMULPD Y10, Y4, Y8
	VADDPD Y8, Y6, Y6
	VMULPD 160(SI), Y5, Y8
	VADDPD Y8, Y6, Y6
	VADDPD Y6, Y2, Y2
	ADDQ $192, SI
	ADDQ $24, DI
	SUBQ $24, CX
	JNZ corrloop

corrdone:
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VZEROUPPER
	RET

// func integrateVelAVX2(q, ph []float64, n int, x, a *[3]float64) int
//
// Lane l is node 4k+l. Per group of four nodes: r = x − p,
// r² = (rx² + ry²) + rz², inv = 1/√r², inv⁵ = (((inv·inv)·inv)·inv)·inv,
// c = ((K·inv⁵)·(r·w))·(r·ϕ) with each dot as ((·x + ·y) + ·z), then c·r —
// VSUBPD/VMULPD/VADDPD/VSQRTPD/VDIVPD, each rounding where the Go loop
// rounds. The three c·r are stored to the frame and added to a one node at
// a time (VADDSD), so the sum runs in node order. A group with r² = 0 in
// any lane ends the kernel before it is added: the Go loop skips that node.
TEXT ·integrateVelAVX2(SB), NOSPLIT, $96-80
	MOVQ q_base+0(FP), SI
	MOVQ ph_base+24(FP), DI
	MOVQ n+48(FP), R8
	MOVQ x+56(FP), AX
	MOVQ a+64(FP), BX
	MOVQ R8, CX
	SHRQ $2, CX
	SHLQ $3, R8
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	XORQ DX, DX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD dlConst<>+0(SB), Y13
	VBROADCASTSD dlConst<>+8(SB), Y14
	VXORPD Y15, Y15, Y15
	VMOVSD 0(BX), X10
	VMOVSD 8(BX), X11
	VMOVSD 16(BX), X12
	TESTQ CX, CX
	JZ veldone

velloop:
	VSUBPD (SI), Y0, Y3
	VSUBPD (SI)(R8*1), Y1, Y4
	VSUBPD (SI)(R8*2), Y2, Y5
	VMULPD Y3, Y3, Y6
	VMULPD Y4, Y4, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y5, Y7
	VADDPD Y7, Y6, Y6
	VCMPPD $0, Y15, Y6, Y7
	VMOVMSKPD Y7, AX
	TESTL AX, AX
	JNZ veldone
	VSQRTPD Y6, Y6
	VDIVPD Y6, Y14, Y6
	VMULPD Y6, Y6, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y13, Y7, Y7
	VMULPD (R9), Y3, Y8
	VMULPD (R9)(R8*1), Y4, Y9
	VADDPD Y9, Y8, Y8
	VMULPD (R9)(R8*2), Y5, Y9
	VADDPD Y9, Y8, Y8
	VMULPD Y8, Y7, Y7
	VMULPD (DI), Y3, Y8
	VMULPD (DI)(R8*1), Y4, Y9
	VADDPD Y9, Y8, Y8
	VMULPD (DI)(R8*2), Y5, Y9
	VADDPD Y9, Y8, Y8
	VMULPD Y8, Y7, Y7
	VMULPD Y7, Y3, Y3
	VMULPD Y7, Y4, Y4
	VMULPD Y7, Y5, Y5
	VMOVUPD Y3, 0(SP)
	VMOVUPD Y4, 32(SP)
	VMOVUPD Y5, 64(SP)
	VADDSD 0(SP), X10, X10
	VADDSD 8(SP), X10, X10
	VADDSD 16(SP), X10, X10
	VADDSD 24(SP), X10, X10
	VADDSD 32(SP), X11, X11
	VADDSD 40(SP), X11, X11
	VADDSD 48(SP), X11, X11
	VADDSD 56(SP), X11, X11
	VADDSD 64(SP), X12, X12
	VADDSD 72(SP), X12, X12
	VADDSD 80(SP), X12, X12
	VADDSD 88(SP), X12, X12
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, DI
	ADDQ $4, DX
	DECQ CX
	JNZ velloop

veldone:
	VMOVSD X10, 0(BX)
	VMOVSD X11, 8(BX)
	VMOVSD X12, 16(BX)
	MOVQ DX, ret+72(FP)
	VZEROUPPER
	RET

// func integrateBlockAVX2(q, cv, cu, kp, m1, m []float64, qc int, x *[3]float64)
//
// integrateBlockGo for the 6×6 rule (n = 36 nodes, planes 288 bytes apart)
// in three passes, each product and sum rounded where the Go loop rounds
// and without FMA:
//
//  1. Kernel, four nodes per lane group: r = x − p, r² = (rx² + ry²) + rz²,
//     inv = 1/√r², inv⁵ = (((inv·inv)·inv)·inv)·inv, c = (K·inv⁵)·(r·w),
//     then the six products kab = (c·ra)·rb into six planes of kp. A node at
//     the target (r² = 0) gets c = 0: its products are ±0, and a sum that
//     starts at +0 is never −0, so adding them changes no bit, as skipping
//     them does not.
//  2. Stage 1, row i and four coarse v-nodes jc per lane group: the six
//     moments Σ_j kab(i,j)·cv[j][jc], summed in node order j and stored in m1
//     as [group][i][plane][lane] (1152 bytes per group, 192 per row). A
//     group that runs past qc reads into the next row of cv (or its three
//     values of slack); those lanes are never stored to m.
//  3. Stage 2, per coarse u-node ic and lane group: Σ_i cu[i][ic]·m1[i] in
//     row order, added to the six planes of m; a group that runs past qc
//     adds its live lanes one at a time from the frame.
TEXT ·integrateBlockAVX2(SB), NOSPLIT, $192-160
	MOVQ q_base+0(FP), SI
	MOVQ kp_base+72(FP), DI
	MOVQ x+152(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD dlConst<>+0(SB), Y13
	VBROADCASTSD dlConst<>+8(SB), Y14
	VXORPD Y15, Y15, Y15
	MOVQ $9, CX

blkkern:
	VSUBPD (SI), Y0, Y3
	VSUBPD 288(SI), Y1, Y4
	VSUBPD 576(SI), Y2, Y5
	VMULPD Y3, Y3, Y6
	VMULPD Y4, Y4, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y5, Y7
	VADDPD Y7, Y6, Y6
	VCMPPD $0, Y15, Y6, Y12
	VSQRTPD Y6, Y6
	VDIVPD Y6, Y14, Y6
	VMULPD Y6, Y6, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y13, Y7, Y7
	VMULPD 864(SI), Y3, Y8
	VMULPD 1152(SI), Y4, Y9
	VADDPD Y9, Y8, Y8
	VMULPD 1440(SI), Y5, Y9
	VADDPD Y9, Y8, Y8
	VMULPD Y8, Y7, Y7
	VANDNPD Y7, Y12, Y7
	VMULPD Y7, Y3, Y8
	VMULPD Y7, Y4, Y9
	VMULPD Y7, Y5, Y10
	VMULPD Y3, Y8, Y11
	VMOVUPD Y11, 0(DI)
	VMULPD Y4, Y8, Y11
	VMOVUPD Y11, 288(DI)
	VMULPD Y5, Y8, Y11
	VMOVUPD Y11, 576(DI)
	VMULPD Y4, Y9, Y11
	VMOVUPD Y11, 864(DI)
	VMULPD Y5, Y9, Y11
	VMOVUPD Y11, 1152(DI)
	VMULPD Y5, Y10, Y11
	VMOVUPD Y11, 1440(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ blkkern

	// Stage 1. R12 lane groups of qc; R11 = 8·qc, a cv row; R8 and R9 are
	// rows 0 and 3 of cv, DI row i of kp, R10 row i of m1.
	MOVQ qc+144(FP), R11
	LEAQ 3(R11), R12
	SHRQ $2, R12
	SHLQ $3, R11
	MOVQ cv_base+24(FP), R8
	LEAQ (R8)(R11*2), R9
	ADDQ R11, R9
	MOVQ kp_base+72(FP), DI
	MOVQ m1_base+96(FP), R10
	MOVQ $6, BX

blkrow:
	MOVQ R8, SI
	MOVQ R9, R13
	MOVQ R10, R14
	MOVQ R12, DX

blkgrp:
	VMOVUPD (SI), Y6
	VBROADCASTSD 0(DI), Y0
	VMULPD Y6, Y0, Y0
	VBROADCASTSD 288(DI), Y1
	VMULPD Y6, Y1, Y1
	VBROADCASTSD 576(DI), Y2
	VMULPD Y6, Y2, Y2
	VBROADCASTSD 864(DI), Y3
	VMULPD Y6, Y3, Y3
	VBROADCASTSD 1152(DI), Y4
	VMULPD Y6, Y4, Y4
	VBROADCASTSD 1440(DI), Y5
	VMULPD Y6, Y5, Y5
	VXORPD Y7, Y7, Y7
	VADDPD Y7, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y7, Y3, Y3
	VADDPD Y7, Y4, Y4
	VADDPD Y7, Y5, Y5
	VMOVUPD (SI)(R11*1), Y6
	VBROADCASTSD 8(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y0
	VBROADCASTSD 296(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y1, Y1
	VBROADCASTSD 584(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 872(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y3, Y3
	VBROADCASTSD 1160(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y4, Y4
	VBROADCASTSD 1448(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y5, Y5
	VMOVUPD (SI)(R11*2), Y6
	VBROADCASTSD 16(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y0
	VBROADCASTSD 304(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y1, Y1
	VBROADCASTSD 592(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 880(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y3, Y3
	VBROADCASTSD 1168(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y4, Y4
	VBROADCASTSD 1456(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y5, Y5
	VMOVUPD (R13), Y6
	VBROADCASTSD 24(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y0
	VBROADCASTSD 312(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y1, Y1
	VBROADCASTSD 600(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 888(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y3, Y3
	VBROADCASTSD 1176(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y4, Y4
	VBROADCASTSD 1464(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y5, Y5
	VMOVUPD (R13)(R11*1), Y6
	VBROADCASTSD 32(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y0
	VBROADCASTSD 320(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y1, Y1
	VBROADCASTSD 608(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 896(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y3, Y3
	VBROADCASTSD 1184(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y4, Y4
	VBROADCASTSD 1472(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y5, Y5
	VMOVUPD (R13)(R11*2), Y6
	VBROADCASTSD 40(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y0
	VBROADCASTSD 328(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y1, Y1
	VBROADCASTSD 616(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 904(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y3, Y3
	VBROADCASTSD 1192(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y4, Y4
	VBROADCASTSD 1480(DI), Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y5, Y5
	VMOVUPD Y0, 0(R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMOVUPD Y3, 96(R14)
	VMOVUPD Y4, 128(R14)
	VMOVUPD Y5, 160(R14)
	ADDQ $32, SI
	ADDQ $32, R13
	ADDQ $1152, R14
	DECQ DX
	JNZ blkgrp
	ADDQ $48, DI
	ADDQ $192, R10
	DECQ BX
	JNZ blkrow

	// Stage 2. SI and R9 are rows 0 and 3 of cu at column ic, R11 = 8·qc
	// its row; DI is row ic of m's plane 0, R13 = 8·qc² the plane; R14 the
	// live lanes of the last group; AX group g of m1; R8 and R10 planes 0
	// and 3 of m at group g.
	MOVQ qc+144(FP), BX
	MOVQ BX, R11
	SHLQ $3, R11
	MOVQ R11, R13
	IMULQ BX, R13
	MOVQ R12, R14
	SHLQ $2, R14
	SUBQ BX, R14
	NEGQ R14
	ADDQ $4, R14
	MOVQ cu_base+48(FP), SI
	LEAQ (SI)(R11*2), R9
	ADDQ R11, R9
	MOVQ m_base+120(FP), DI

blkic:
	MOVQ DI, R8
	LEAQ (DI)(R13*2), R10
	ADDQ R13, R10
	MOVQ m1_base+96(FP), AX
	MOVQ R12, DX

blkcol:
	VBROADCASTSD (SI), Y6
	VMULPD 0(AX), Y6, Y0
	VMULPD 32(AX), Y6, Y1
	VMULPD 64(AX), Y6, Y2
	VMULPD 96(AX), Y6, Y3
	VMULPD 128(AX), Y6, Y4
	VMULPD 160(AX), Y6, Y5
	VXORPD Y7, Y7, Y7
	VADDPD Y7, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y7, Y3, Y3
	VADDPD Y7, Y4, Y4
	VADDPD Y7, Y5, Y5
	VBROADCASTSD (SI)(R11*1), Y6
	VMULPD 192(AX), Y6, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 224(AX), Y6, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 256(AX), Y6, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 288(AX), Y6, Y7
	VADDPD Y7, Y3, Y3
	VMULPD 320(AX), Y6, Y7
	VADDPD Y7, Y4, Y4
	VMULPD 352(AX), Y6, Y7
	VADDPD Y7, Y5, Y5
	VBROADCASTSD (SI)(R11*2), Y6
	VMULPD 384(AX), Y6, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 416(AX), Y6, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 448(AX), Y6, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 480(AX), Y6, Y7
	VADDPD Y7, Y3, Y3
	VMULPD 512(AX), Y6, Y7
	VADDPD Y7, Y4, Y4
	VMULPD 544(AX), Y6, Y7
	VADDPD Y7, Y5, Y5
	VBROADCASTSD (R9), Y6
	VMULPD 576(AX), Y6, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 608(AX), Y6, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 640(AX), Y6, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 672(AX), Y6, Y7
	VADDPD Y7, Y3, Y3
	VMULPD 704(AX), Y6, Y7
	VADDPD Y7, Y4, Y4
	VMULPD 736(AX), Y6, Y7
	VADDPD Y7, Y5, Y5
	VBROADCASTSD (R9)(R11*1), Y6
	VMULPD 768(AX), Y6, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 800(AX), Y6, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 832(AX), Y6, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 864(AX), Y6, Y7
	VADDPD Y7, Y3, Y3
	VMULPD 896(AX), Y6, Y7
	VADDPD Y7, Y4, Y4
	VMULPD 928(AX), Y6, Y7
	VADDPD Y7, Y5, Y5
	VBROADCASTSD (R9)(R11*2), Y6
	VMULPD 960(AX), Y6, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 992(AX), Y6, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 1024(AX), Y6, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 1056(AX), Y6, Y7
	VADDPD Y7, Y3, Y3
	VMULPD 1088(AX), Y6, Y7
	VADDPD Y7, Y4, Y4
	VMULPD 1120(AX), Y6, Y7
	VADDPD Y7, Y5, Y5
	CMPQ DX, $1
	JNE blkfull
	CMPQ R14, $4
	JNE blktail

blkfull:
	VADDPD (R8), Y0, Y0
	VMOVUPD Y0, (R8)
	VADDPD (R8)(R13*1), Y1, Y1
	VMOVUPD Y1, (R8)(R13*1)
	VADDPD (R8)(R13*2), Y2, Y2
	VMOVUPD Y2, (R8)(R13*2)
	VADDPD (R10), Y3, Y3
	VMOVUPD Y3, (R10)
	VADDPD (R10)(R13*1), Y4, Y4
	VMOVUPD Y4, (R10)(R13*1)
	VADDPD (R10)(R13*2), Y5, Y5
	VMOVUPD Y5, (R10)(R13*2)
	ADDQ $32, R8
	ADDQ $32, R10
	ADDQ $1152, AX
	DECQ DX
	JNZ blkcol
	JMP blknextic

blktail:
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y1, 32(SP)
	VMOVUPD Y2, 64(SP)
	VMOVUPD Y3, 96(SP)
	VMOVUPD Y4, 128(SP)
	VMOVUPD Y5, 160(SP)
	XORQ CX, CX

blklane:
	VMOVSD 0(SP)(CX*8), X7
	VADDSD (R8), X7, X7
	VMOVSD X7, (R8)
	VMOVSD 32(SP)(CX*8), X7
	VADDSD (R8)(R13*1), X7, X7
	VMOVSD X7, (R8)(R13*1)
	VMOVSD 64(SP)(CX*8), X7
	VADDSD (R8)(R13*2), X7, X7
	VMOVSD X7, (R8)(R13*2)
	VMOVSD 96(SP)(CX*8), X7
	VADDSD (R10), X7, X7
	VMOVSD X7, (R10)
	VMOVSD 128(SP)(CX*8), X7
	VADDSD (R10)(R13*1), X7, X7
	VMOVSD X7, (R10)(R13*1)
	VMOVSD 160(SP)(CX*8), X7
	VADDSD (R10)(R13*2), X7, X7
	VMOVSD X7, (R10)(R13*2)
	ADDQ $8, R8
	ADDQ $8, R10
	INCQ CX
	CMPQ CX, R14
	JNE blklane

blknextic:
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ R11, DI
	DECQ BX
	JNZ blkic
	VZEROUPPER
	RET
