#include "textflag.h"

// Vectorized XOR-popcount over uint64 words: the Hamming kernel behind
// PackedModel scoring. It uses the classic VPSHUFB nibble-LUT: split each
// byte of the combined word into two nibbles, look each up in a 16-entry
// popcount table, add the per-byte counts, and
// collapse 32 bytes to four qword sums with VPSADBW against zero. Per-byte
// counts peak at 8 and VPSADBW runs every iteration, so no overflow is
// possible at any length; the qword accumulator is exact.

// 16-entry nibble popcount table, replicated across both 128-bit lanes.
DATA popcntLUT<>+0(SB)/8, $0x0302020102010100
DATA popcntLUT<>+8(SB)/8, $0x0403030203020201
DATA popcntLUT<>+16(SB)/8, $0x0302020102010100
DATA popcntLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popcntLUT<>(SB), RODATA|NOPTR, $32

DATA popcntNib<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA popcntNib<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA popcntNib<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA popcntNib<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL popcntNib<>(SB), RODATA|NOPTR, $32

// func xorPopcntAsm(groups int, a, b *uint64) int64
//
// Returns Σ OnesCount64(a[w] ^ b[w]) over the first 4·groups words (one
// 32-byte YMM load per operand per group). groups must be ≥ 1.
TEXT ·xorPopcntAsm(SB), NOSPLIT, $0-32
	MOVQ groups+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI

	VMOVDQU popcntLUT<>(SB), Y14
	VMOVDQU popcntNib<>(SB), Y15
	VPXOR   Y0, Y0, Y0
	VPXOR   Y13, Y13, Y13

gloop:
	VMOVDQU (SI), Y1
	VMOVDQU (DI), Y2
	VPXOR   Y2, Y1, Y1
	VPAND   Y15, Y1, Y2
	VPSHUFB Y2, Y14, Y2
	VPSRLW  $4, Y1, Y3
	VPAND   Y15, Y3, Y3
	VPSHUFB Y3, Y14, Y3
	VPADDB  Y3, Y2, Y2
	VPSADBW Y13, Y2, Y2
	VPADDQ  Y2, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     gloop

	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDQ       X1, X0, X0
	VZEROUPPER
	MOVQ         X0, AX
	MOVQ         AX, ret+24(FP)
	RET
