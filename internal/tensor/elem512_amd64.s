#include "textflag.h"

// The 512-bit depthwise 3×3 plane kernels behind DepthwisePlane (elem.go),
// under useGemm512. They read a zero-padded window, so every output takes all
// nine taps and no edge code exists. Each output lane owns one accumulator
// that starts at +0 and takes the taps kh-major, kw-minor, each product
// rounded by VMULPS before VADDPS adds it: the chain of the AVX2 row kernel
// and the Go twin, hence their bits. Sixteen outputs per vector; a row whose
// width is not a multiple of 16 ends in one vector stored under a mask. Loads
// may run up to 31 floats past the window's last row (DepthwiseWindowLen's
// slack) into lanes that are never stored.

// dwEven / dwOdd are VPERMT2PS index vectors: the even and the odd floats of
// 32 consecutive ones held in two registers.
DATA dwEven<>+0(SB)/4, $0
DATA dwEven<>+4(SB)/4, $2
DATA dwEven<>+8(SB)/4, $4
DATA dwEven<>+12(SB)/4, $6
DATA dwEven<>+16(SB)/4, $8
DATA dwEven<>+20(SB)/4, $10
DATA dwEven<>+24(SB)/4, $12
DATA dwEven<>+28(SB)/4, $14
DATA dwEven<>+32(SB)/4, $16
DATA dwEven<>+36(SB)/4, $18
DATA dwEven<>+40(SB)/4, $20
DATA dwEven<>+44(SB)/4, $22
DATA dwEven<>+48(SB)/4, $24
DATA dwEven<>+52(SB)/4, $26
DATA dwEven<>+56(SB)/4, $28
DATA dwEven<>+60(SB)/4, $30
GLOBL dwEven<>(SB), RODATA|NOPTR, $64

DATA dwOdd<>+0(SB)/4, $1
DATA dwOdd<>+4(SB)/4, $3
DATA dwOdd<>+8(SB)/4, $5
DATA dwOdd<>+12(SB)/4, $7
DATA dwOdd<>+16(SB)/4, $9
DATA dwOdd<>+20(SB)/4, $11
DATA dwOdd<>+24(SB)/4, $13
DATA dwOdd<>+28(SB)/4, $15
DATA dwOdd<>+32(SB)/4, $17
DATA dwOdd<>+36(SB)/4, $19
DATA dwOdd<>+40(SB)/4, $21
DATA dwOdd<>+44(SB)/4, $23
DATA dwOdd<>+48(SB)/4, $25
DATA dwOdd<>+52(SB)/4, $27
DATA dwOdd<>+56(SB)/4, $29
DATA dwOdd<>+60(SB)/4, $31
GLOBL dwOdd<>(SB), RODATA|NOPTR, $64

// TAPS9 loads the nine kernel taps, broadcast, into Z0–Z8.
#define TAPS9(K) \
	VBROADCASTSS (K), Z0   \
	VBROADCASTSS 4(K), Z1  \
	VBROADCASTSS 8(K), Z2  \
	VBROADCASTSS 12(K), Z3 \
	VBROADCASTSS 16(K), Z4 \
	VBROADCASTSS 20(K), Z5 \
	VBROADCASTSS 24(K), Z6 \
	VBROADCASTSS 28(K), Z7 \
	VBROADCASTSS 32(K), Z8

// TAILMASK(W) sets K1 to the low W mod 16 lanes (none when W is a multiple
// of 16) and R10 to the row's count of whole vectors. Clobbers BX, CX.
#define TAILMASK(W) \
	MOVQ  W, CX    \
	ANDQ  $15, CX  \
	MOVL  $1, BX   \
	SHLL  CX, BX   \
	DECL  BX       \
	KMOVW BX, K1   \
	MOVQ  W, R10   \
	SHRQ  $4, R10

// S1ROW(R, T0, T1, T2) adds one kernel row's three taps for the sixteen
// outputs whose windows start at R (stride 1): multiply, then add.
#define S1ROW(R, T0, T1, T2) \
	VMULPS (R), T0, Z10   \
	VADDPS Z10, Z9, Z9    \
	VMULPS 4(R), T1, Z11  \
	VADDPS Z11, Z9, Z9    \
	VMULPS 8(R), T2, Z12  \
	VADDPS Z12, Z9, Z9

// S1VEC computes sixteen stride-1 outputs into Z9 from the window rows at
// R11, R12 and R13.
#define S1VEC \
	VPXORD Z9, Z9, Z9      \
	S1ROW(R11, Z0, Z1, Z2) \
	S1ROW(R12, Z3, Z4, Z5) \
	S1ROW(R13, Z6, Z7, Z8)

// func depthwise3x3PlaneAsm(outH, outW int, dst, win *float32, wp int, ker *float32)
//
// dst[oh·outW + j] = Σ_{r<3} Σ_{c<3} win[(oh+r)·wp + j + c]·ker[3r+c] for
// oh < outH, j < outW; outH, outW ≥ 1.
TEXT ·depthwise3x3PlaneAsm(SB), NOSPLIT, $0-48
	MOVQ outH+0(FP), R8
	MOVQ outW+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ win+24(FP), SI
	MOVQ wp+32(FP), DX
	MOVQ ker+40(FP), AX
	SHLQ $2, DX
	TAPS9(AX)
	TAILMASK(R9)

s1row:
	MOVQ SI, R11
	LEAQ (SI)(DX*1), R12
	LEAQ (SI)(DX*2), R13
	MOVQ DI, R14
	MOVQ R10, CX
	TESTQ CX, CX
	JEQ  s1tail

s1vec:
	S1VEC
	VMOVUPS Z9, (R14)
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, R14
	DECQ CX
	JNE  s1vec

s1tail:
	KORTESTW K1, K1
	JEQ      s1next
	S1VEC
	VMOVUPS Z9, K1, (R14)

s1next:
	ADDQ DX, SI
	LEAQ (DI)(R9*4), DI
	DECQ R8
	JNE  s1row
	VZEROUPPER
	RET

// S2ROW(R, T0, T1, T2) adds one kernel row's three taps for the sixteen
// outputs whose windows start at R (stride 2): the even floats of [R, R+32)
// are tap 0's inputs, the odd ones tap 1's, and the even ones of [R+2, R+34)
// tap 2's. Z20 / Z21 hold the even / odd index vectors.
#define S2ROW(R, T0, T1, T2) \
	VMOVUPS   (R), Z10         \
	VPERMT2PS 64(R), Z20, Z10  \
	VMOVUPS   (R), Z11         \
	VPERMT2PS 64(R), Z21, Z11  \
	VMOVUPS   8(R), Z12        \
	VPERMT2PS 72(R), Z20, Z12  \
	VMULPS    Z10, T0, Z10     \
	VADDPS    Z10, Z9, Z9      \
	VMULPS    Z11, T1, Z11     \
	VADDPS    Z11, Z9, Z9      \
	VMULPS    Z12, T2, Z12     \
	VADDPS    Z12, Z9, Z9

// S2VEC computes sixteen stride-2 outputs into Z9 from the window rows at
// R11, R12 and R13.
#define S2VEC \
	VPXORD Z9, Z9, Z9      \
	S2ROW(R11, Z0, Z1, Z2) \
	S2ROW(R12, Z3, Z4, Z5) \
	S2ROW(R13, Z6, Z7, Z8)

// func depthwise3x3S2PlaneAsm(outH, outW int, dst, win *float32, wp int, ker *float32)
//
// dst[oh·outW + j] = Σ_{r<3} Σ_{c<3} win[(2oh+r)·wp + 2j + c]·ker[3r+c] for
// oh < outH, j < outW; outH, outW ≥ 1.
TEXT ·depthwise3x3S2PlaneAsm(SB), NOSPLIT, $0-48
	MOVQ outH+0(FP), R8
	MOVQ outW+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ win+24(FP), SI
	MOVQ wp+32(FP), DX
	MOVQ ker+40(FP), AX
	SHLQ $2, DX
	TAPS9(AX)
	VMOVUPS dwEven<>(SB), Z20
	VMOVUPS dwOdd<>(SB), Z21
	TAILMASK(R9)

s2row:
	MOVQ SI, R11
	LEAQ (SI)(DX*1), R12
	LEAQ (SI)(DX*2), R13
	MOVQ DI, R14
	MOVQ R10, CX
	TESTQ CX, CX
	JEQ  s2tail

s2vec:
	S2VEC
	VMOVUPS Z9, (R14)
	ADDQ $128, R11
	ADDQ $128, R12
	ADDQ $128, R13
	ADDQ $64, R14
	DECQ CX
	JNE  s2vec

s2tail:
	KORTESTW K1, K1
	JEQ      s2next
	S2VEC
	VMOVUPS Z9, K1, (R14)

s2next:
	LEAQ (SI)(DX*2), SI
	LEAQ (DI)(R9*4), DI
	DECQ R8
	JNE  s2row
	VZEROUPPER
	RET

// func padRowsAsm(rows, n int, dst *float32, ldd int, src *float32)
//
// Copies rows × n floats from src, packed, to dst at a row pitch of ldd
// floats — a plane into its padded window's interior — sixteen floats a
// move and the row's last n mod 16 under a mask; rows, n ≥ 1.
TEXT ·padRowsAsm(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ dst+16(FP), DI
	MOVQ ldd+24(FP), DX
	MOVQ src+32(FP), SI
	SHLQ $2, DX
	TAILMASK(R9)

padrow:
	MOVQ DI, R14
	MOVQ R10, CX
	TESTQ CX, CX
	JEQ  padtail

padvec:
	VMOVUPS (SI), Z0
	VMOVUPS Z0, (R14)
	ADDQ $64, SI
	ADDQ $64, R14
	DECQ CX
	JNE  padvec

padtail:
	KORTESTW K1, K1
	JEQ      padnext
	VMOVUPS.Z (SI), K1, Z0
	VMOVUPS   Z0, K1, (R14)
	MOVQ R9, AX
	ANDQ $15, AX
	LEAQ (SI)(AX*4), SI

padnext:
	ADDQ DX, DI
	DECQ R8
	JNE  padrow
	VZEROUPPER
	RET

// func affineAct512Asm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint16, hi float32)
//
// affineActAsm sixteen floats a step (n a positive multiple of 16): the same
// subtract, multiply, multiply, add, each rounded, then the clamp as mask
// operations — lanes outside (y > 0 or NaN) | keep are zeroed, lanes where
// y >= hi take hi — with the same compare predicates.
TEXT ·affineAct512Asm(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	VBROADCASTSS gamma+16(FP), Z8
	VBROADCASTSS mean+20(FP), Z9
	VBROADCASTSS invStd+24(FP), Z10
	VBROADCASTSS beta+28(FP), Z11
	MOVWLZX keep+32(FP), AX
	KMOVW AX, K4
	VBROADCASTSS hi+36(FP), Z13
	VPXORD Z0, Z0, Z0

affine512loop:
	VMOVUPS (SI), Z1
	VSUBPS  Z9, Z1, Z1
	VMULPS  Z1, Z8, Z1
	VMULPS  Z10, Z1, Z1
	VADDPS  Z11, Z1, Z1
	VCMPPS  $6, Z0, Z1, K2
	VCMPPS  $13, Z13, Z1, K3
	KORW    K4, K2, K2
	VMOVUPS.Z Z1, K2, Z1
	VBLENDMPS Z13, Z1, K3, Z1
	VMOVUPS Z1, (SI)
	ADDQ    $64, SI
	SUBQ    $16, CX
	JNE     affine512loop
	VZEROUPPER
	RET

// func reluBack512Asm(n int, dst, grad, y *float32)
//
// reluBackAsm sixteen floats a step (n a positive multiple of 16): the same
// GT_OQ compare into K1, and g loaded under it with the other lanes zeroed.
TEXT ·reluBack512Asm(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ y+24(FP), DX
	VPXORD Z0, Z0, Z0

reluback512:
	VMOVUPS   (DX), Z1
	VCMPPS    $0x1e, Z0, Z1, K1
	VMOVUPS.Z (SI), K1, Z2
	VMOVUPS   Z2, (DI)
	ADDQ      $64, DX
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	JNE       reluback512
	VZEROUPPER
	RET
