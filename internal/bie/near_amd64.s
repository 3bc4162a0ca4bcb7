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
