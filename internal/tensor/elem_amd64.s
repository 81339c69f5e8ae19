#include "textflag.h"

// Elementwise and depthwise kernels (see elem.go). Comparisons are VCMPPS
// masks with the predicate of the scalar test they replace — 1 (LT_OS) for
// `v < 0`, 6 (NLE_US) for `!(v <= 0)`, 13 (GE_OS) for `v >= 6` — so NaN, -0
// and ±Inf land on the same side as in Go; arithmetic is VSUBPS / VMULPS /
// VADDPS, never a fused multiply-add.

// BCAST(bits, X, Y) broadcasts a 32-bit immediate to all lanes of Y.
#define BCAST(bits, X, Y) \
	MOVL $bits, AX \
	MOVQ AX, X     \
	VBROADCASTSS X, Y

// func signAsm(n int, p *float32)
//
// p[i] = p[i] < 0 ? -1 : +1 over n floats (n a positive multiple of 8): a
// compare-and-blend, so -0 and NaN (either sign) go to +1.
TEXT ·signAsm(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	VXORPS Y0, Y0, Y0
	BCAST(0x3F800000, X1, Y1)
	BCAST(0xBF800000, X2, Y2)

signloop:
	VMOVUPS   (SI), Y3
	VCMPPS    $1, Y0, Y3, Y3
	VBLENDVPS Y3, Y2, Y1, Y3
	VMOVUPS   Y3, (SI)
	ADDQ      $32, SI
	SUBQ      $8, CX
	JNE       signloop
	VZEROUPPER
	RET

// func clampReLU6Asm(n int, dst, src *float32)
//
// ReLU6 of n floats at src into dst (n a positive multiple of 8; dst == src
// is the in-place sweep). The lower clamp is reluAsm's mask (v <= 0 → +0,
// NaN passes); the upper is a blend of 6 under v >= 6, false for NaN.
TEXT ·clampReLU6Asm(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	VXORPS Y0, Y0, Y0
	BCAST(0x40C00000, X1, Y1)

clamploop:
	VMOVUPS   (SI), Y2
	VCMPPS    $6, Y0, Y2, Y3
	VCMPPS    $13, Y1, Y2, Y4
	VANDPS    Y3, Y2, Y2
	VBLENDVPS Y4, Y1, Y2, Y2
	VMOVUPS   Y2, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNE       clamploop
	VZEROUPPER
	RET

// func affineActAsm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint32, hi float32)
//
// p[i] = clamp(((gamma*(p[i]-mean))*invStd) + beta) over n floats (n a positive
// multiple of 8): subtract, multiply, multiply, add, each rounded. The clamp
// zeroes lanes outside (y > 0 or NaN) | keep, then selects hi where y >= hi;
// keep = all ones and hi = +Inf make either half the identity.
TEXT ·affineActAsm(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	VBROADCASTSS gamma+16(FP), Y8
	VBROADCASTSS mean+20(FP), Y9
	VBROADCASTSS invStd+24(FP), Y10
	VBROADCASTSS beta+28(FP), Y11
	VBROADCASTSS keep+32(FP), Y12
	VBROADCASTSS hi+36(FP), Y13
	VXORPS Y0, Y0, Y0

affineloop:
	VMOVUPS   (SI), Y1
	VSUBPS    Y9, Y1, Y1
	VMULPS    Y1, Y8, Y1
	VMULPS    Y10, Y1, Y1
	VADDPS    Y11, Y1, Y1
	VCMPPS    $6, Y0, Y1, Y2
	VCMPPS    $13, Y13, Y1, Y3
	VORPS     Y12, Y2, Y2
	VANDPS    Y2, Y1, Y1
	VBLENDVPS Y3, Y13, Y1, Y1
	VMOVUPS   Y1, (SI)
	ADDQ      $32, SI
	SUBQ      $8, CX
	JNE       affineloop
	VZEROUPPER
	RET

// DWROW(S, K0, K1, K2) adds one kernel row's three taps to the accumulator
// Y9 for the eight outputs whose windows start at S: multiply, then add, tap
// by tap.
#define DWROW(S, K0, K1, K2) \
	VMULPS (S), K0, Y10   \
	VADDPS Y10, Y9, Y9    \
	VMULPS 4(S), K1, Y10  \
	VADDPS Y10, Y9, Y9    \
	VMULPS 8(S), K2, Y10  \
	VADDPS Y10, Y9, Y9

// func depthwise3x3RowAsm(n int, dst, src *float32, ld int, ker *float32, rows int)
//
// dst[j] = Σ_{r<rows} Σ_{c<3} src[r*ld+j+c]·ker[3r+c] for j in [0, n), n ≥ 8,
// rows in 1..3. The kernel taps live broadcast in Y0–Y8; each block of eight
// outputs accumulates from +0 in r-major, c-minor order. Blocks are
// independent, so out-of-order execution overlaps the dependent adds of
// consecutive iterations, and a ragged n ends with one block stepped back to
// cover the last eight outputs — rewriting up to seven with the same values.
TEXT ·depthwise3x3RowAsm(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), DX
	MOVQ ker+32(FP), R8
	MOVQ rows+40(FP), BX
	SHLQ $2, DX
	LEAQ (SI)(DX*1), R9
	LEAQ (R9)(DX*1), R10

	VBROADCASTSS (R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	CMPQ BX, $2
	JLT  dwloop
	VBROADCASTSS 12(R8), Y3
	VBROADCASTSS 16(R8), Y4
	VBROADCASTSS 20(R8), Y5
	JEQ  dwloop
	VBROADCASTSS 24(R8), Y6
	VBROADCASTSS 28(R8), Y7
	VBROADCASTSS 32(R8), Y8

dwloop:
	VXORPS Y9, Y9, Y9
	DWROW(SI, Y0, Y1, Y2)
	CMPQ BX, $2
	JLT  dwstore
	DWROW(R9, Y3, Y4, Y5)
	JEQ  dwstore
	DWROW(R10, Y6, Y7, Y8)

dwstore:
	VMOVUPS Y9, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     dwloop
	TESTQ   CX, CX
	JEQ     dwdone
	SUBQ    $8, CX
	SHLQ    $2, CX
	ADDQ    CX, SI
	ADDQ    CX, R9
	ADDQ    CX, R10
	ADDQ    CX, DI
	MOVQ    $8, CX
	JMP     dwloop

dwdone:
	VZEROUPPER
	RET

// func maxPool2x2Asm(n int, out, r0, r1 *float32)
//
// out[j] = max of r0[2j], r0[2j+1], r1[2j], r1[2j+1] for j in [0, n), n a
// positive multiple of 8, eight outputs an iteration. VSHUFPS splits each
// row's 16 floats into even and odd taps (both in the same lane-scrambled
// order, undone by one VPERMPD on the result). The running best is always
// VMAXPS's second source, which is what the instruction returns unless the
// first is strictly greater — `if v > best { best = v }`, so NaN and ±0
// resolve as in Go.
TEXT ·maxPool2x2Asm(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ out+8(FP), DI
	MOVQ r0+16(FP), SI
	MOVQ r1+24(FP), DX

poolloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS (DX), Y2
	VMOVUPS 32(DX), Y3
	VSHUFPS $0x88, Y1, Y0, Y4
	VSHUFPS $0xDD, Y1, Y0, Y5
	VSHUFPS $0x88, Y3, Y2, Y6
	VSHUFPS $0xDD, Y3, Y2, Y7
	VMAXPS  Y4, Y5, Y4
	VMAXPS  Y4, Y6, Y4
	VMAXPS  Y4, Y7, Y4
	VPERMPD $0xD8, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     poolloop
	VZEROUPPER
	RET

// func addRowsAsm(rows, n int, dst *float32, ldd int, src *float32, lds int)
//
// dst[r*ldd+i] += src[r*lds+i] for r in [0, rows), i in [0, n), rows and n
// positive: per row eight floats an iteration, then four, then one at a time.
// dst's element is the add's first source in all three widths, as in Go's
// `d[i] += v`.
TEXT ·addRowsAsm(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ ldd+24(FP), R10
	MOVQ src+32(FP), SI
	MOVQ lds+40(FP), R11
	SHLQ $2, R10
	SHLQ $2, R11

addrow:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ R9, CX
	CMPQ CX, $8
	JLT  add4

add8:
	VMOVUPS (AX), Y0
	VADDPS  (BX), Y0, Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     add8

add4:
	CMPQ    CX, $4
	JLT     add1
	VMOVUPS (AX), X0
	VADDPS  (BX), X0, X0
	VMOVUPS X0, (AX)
	ADDQ    $16, AX
	ADDQ    $16, BX
	SUBQ    $4, CX

add1:
	TESTQ CX, CX
	JEQ   addnext

add1loop:
	VMOVSS (AX), X0
	VADDSS (BX), X0, X0
	VMOVSS X0, (AX)
	ADDQ   $4, AX
	ADDQ   $4, BX
	DECQ   CX
	JNE    add1loop

addnext:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JNE  addrow
	VZEROUPPER
	RET

// func addFloat64Asm(n int, dst *float64, src *float32)
//
// dst[i] += float64(src[i]) for i in [0, n), n a positive multiple of 8: four
// floats widened by VCVTPS2PD (exact) and added to four doubles, the
// accumulator the first operand as in the scalar `dst[i] += float64(v)`.
TEXT ·addFloat64Asm(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI

loop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VMOVUPD   (DI), Y2
	VMOVUPD   32(DI), Y3
	VADDPD    Y0, Y2, Y2
	VADDPD    Y1, Y3, Y3
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y3, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNE       loop
	VZEROUPPER
	RET

// func reluBackAsm(n int, dst, grad, y *float32)
//
// ReLU's input gradient, eight floats a step (n a positive multiple of 8):
// dx = g where y > 0, else +0. The compare is GT_OQ, false for a NaN y, and
// the AND keeps g's bits — NaN payloads and −0 included — exactly as the Go
// twin's select does.
TEXT ·reluBackAsm(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ y+24(FP), DX
	VXORPS Y0, Y0, Y0

reluback:
	VMOVUPS (DX), Y1
	VCMPPS  $0x1e, Y0, Y1, Y2
	VANDPS  (SI), Y2, Y3
	VMOVUPS Y3, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     reluback
	VZEROUPPER
	RET

// func adamAsm(n int, w, grad, m, v *float32, c *adamCoef)
//
// AdamStep eight floats a step (n a positive multiple of 8), in the Go twin's
// operations and operand order: the float32 moments by VMULPS then VADDPS,
// then each half of four widened by VCVTPS2PD (exact) through VDIVPD,
// VSQRTPD, VADDPD, VMULPD and VDIVPD, narrowed by one VCVTPD2PS and
// subtracted from w. The weight decay runs where wd != 0 (+0 and −0 skip
// it), as in sgdAsm.
TEXT ·adamAsm(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ w+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ m+24(FP), DX
	MOVQ v+32(FP), R8
	MOVQ c+40(FP), AX
	VBROADCASTSS 0(AX), Y8  // b1
	VBROADCASTSS 4(AX), Y9  // b2
	VBROADCASTSS 8(AX), Y10 // c1
	VBROADCASTSS 12(AX), Y11 // c2
	VBROADCASTSS 16(AX), Y12 // wd
	MOVL 16(AX), BX
	ANDL $0x7fffffff, BX
	VBROADCASTSD 24(AX), Y13 // lr
	VBROADCASTSD 32(AX), Y14 // eps
	VBROADCASTSD 40(AX), Y15 // bc1
	VBROADCASTSD 48(AX), Y7  // bc2

adamloop:
	VMOVUPS (SI), Y0
	TESTL   BX, BX
	JZ      adamnodecay
	VMULPS  (DI), Y12, Y1
	VADDPS  Y1, Y0, Y0

adamnodecay:
	VMULPS  (DX), Y8, Y2
	VMULPS  Y0, Y10, Y1
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DX)
	VMULPS  Y0, Y11, Y1
	VMULPS  Y0, Y1, Y1
	VMULPS  (R8), Y9, Y3
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y3, (R8)
	VCVTPS2PD    X2, Y4
	VEXTRACTF128 $1, Y2, X5
	VCVTPS2PD    X5, Y5
	VCVTPS2PD    X3, Y6
	VEXTRACTF128 $1, Y3, X1
	VCVTPS2PD    X1, Y1
	VDIVPD  Y15, Y4, Y4
	VDIVPD  Y15, Y5, Y5
	VDIVPD  Y7, Y6, Y6
	VDIVPD  Y7, Y1, Y1
	VSQRTPD Y6, Y6
	VSQRTPD Y1, Y1
	VADDPD  Y14, Y6, Y6
	VADDPD  Y14, Y1, Y1
	VMULPD  Y4, Y13, Y4
	VMULPD  Y5, Y13, Y5
	VDIVPD  Y6, Y4, Y4
	VDIVPD  Y1, Y5, Y5
	VCVTPD2PSY  Y4, X4
	VCVTPD2PSY  Y5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMOVUPS (DI), Y0
	VSUBPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	SUBQ    $8, CX
	JNE     adamloop
	VZEROUPPER
	RET

// func sgdAsm(n int, w, grad, v *float32, lr, mu, wd float32)
//
// SGDStep eight floats a step (n a positive multiple of 8), in the Go twin's
// operations and operand order, each product rounded by VMULPS before its
// VADDPS or VSUBPS. The weight decay runs where wd != 0 (+0 and −0 skip it).
TEXT ·sgdAsm(SB), NOSPLIT, $0-44
	MOVQ n+0(FP), CX
	MOVQ w+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ v+24(FP), DX
	VBROADCASTSS lr+32(FP), Y8
	VBROADCASTSS mu+36(FP), Y9
	VBROADCASTSS wd+40(FP), Y10
	MOVL wd+40(FP), BX
	ANDL $0x7fffffff, BX

sgdloop:
	VMOVUPS (SI), Y0
	TESTL   BX, BX
	JZ      sgdnodecay
	VMULPS  (DI), Y10, Y1
	VADDPS  Y1, Y0, Y0

sgdnodecay:
	VMULPS  (DX), Y9, Y2
	VADDPS  Y0, Y2, Y2
	VMOVUPS Y2, (DX)
	VMULPS  Y2, Y8, Y2
	VMOVUPS (DI), Y3
	VSUBPS  Y2, Y3, Y3
	VMOVUPS Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JNE     sgdloop
	VZEROUPPER
	RET

// func sumSquaresAsm(n int, x *float32) float64
//
// Σ float64(x[i])² for i in [0, n), n a positive multiple of 16: four floats
// at a time widened by VCVTPS2PD (exact) and squared (exact in float64: 48
// significand bits), each square added to one of sixteen double lanes, and
// the lanes then added pairwise to one sum.
TEXT ·sumSquaresAsm(SB), NOSPLIT, $0-24
	MOVQ   n+0(FP), CX
	MOVQ   x+8(FP), SI
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

sqloop:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VCVTPS2PD 32(SI), Y2
	VCVTPS2PD 48(SI), Y3
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VADDPD    Y0, Y4, Y4
	VADDPD    Y1, Y5, Y5
	VADDPD    Y2, Y6, Y6
	VADDPD    Y3, Y7, Y7
	ADDQ      $64, SI
	SUBQ      $16, CX
	JNE       sqloop

	VADDPD       Y5, Y4, Y4
	VADDPD       Y7, Y6, Y6
	VADDPD       Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VUNPCKHPD    X4, X4, X5
	VADDSD       X5, X4, X4
	VZEROUPPER
	MOVSD        X4, ret+16(FP)
	RET
