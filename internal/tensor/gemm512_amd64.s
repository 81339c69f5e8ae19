#include "textflag.h"

// The 512-bit twins of the four float strip kernels in gemm_amd64.s, behind
// useGemm512. A 16-float strip is one ZMM register, so panel layout and
// offset tables are unchanged; what changes is the register tile. Every
// output lane still owns one accumulator that starts at zero, takes one fused
// multiply-add per K step in ascending order and is added into the output
// once — the chain of the 256-bit kernels, hence their bits. AVX512F only;
// every kernel ends in VZEROUPPER.
//
// Each strip kernel takes a zero flag: the tile is then added to +0 from a
// zeroed register instead of to the loaded output — the sum a cleared output
// would have given it, −0 accumulators included — so an overwriting product's
// first K block needs no clear pass over its output.

// ADD8x32 adds the 8×32 tile's place in the output to its 16 accumulators
// and STORE8x32 stores them there: row r at DI + r·R12 bytes, the strip pair
// at +0 and +64, AX = 3·R12. ADD8x32 walks DX, STORE8x32 DI.
#define ADD8x32 \
	MOVQ   DI, DX; \
	VADDPS (DX), Z0, Z0; \
	VADDPS 64(DX), Z1, Z1; \
	VADDPS (DX)(R12*1), Z2, Z2; \
	VADDPS 64(DX)(R12*1), Z3, Z3; \
	VADDPS (DX)(R12*2), Z4, Z4; \
	VADDPS 64(DX)(R12*2), Z5, Z5; \
	ADDQ   AX, DX; \
	VADDPS (DX), Z6, Z6; \
	VADDPS 64(DX), Z7, Z7; \
	VADDPS (DX)(R12*1), Z8, Z8; \
	VADDPS 64(DX)(R12*1), Z9, Z9; \
	VADDPS (DX)(R12*2), Z10, Z10; \
	VADDPS 64(DX)(R12*2), Z11, Z11; \
	ADDQ   AX, DX; \
	VADDPS (DX), Z12, Z12; \
	VADDPS 64(DX), Z13, Z13; \
	VADDPS (DX)(R12*1), Z14, Z14; \
	VADDPS 64(DX)(R12*1), Z15, Z15

#define STORE8x32 \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z1, 64(DI); \
	VMOVUPS Z2, (DI)(R12*1); \
	VMOVUPS Z3, 64(DI)(R12*1); \
	VMOVUPS Z4, (DI)(R12*2); \
	VMOVUPS Z5, 64(DI)(R12*2); \
	ADDQ    AX, DI; \
	VMOVUPS Z6, (DI); \
	VMOVUPS Z7, 64(DI); \
	VMOVUPS Z8, (DI)(R12*1); \
	VMOVUPS Z9, 64(DI)(R12*1); \
	VMOVUPS Z10, (DI)(R12*2); \
	VMOVUPS Z11, 64(DI)(R12*2); \
	ADDQ    AX, DI; \
	VMOVUPS Z12, (DI); \
	VMOVUPS Z13, 64(DI); \
	VMOVUPS Z14, (DI)(R12*1); \
	VMOVUPS Z15, 64(DI)(R12*1)

// ADDZERO16(z) adds the zeroed register z to the accumulators Z0–Z15.
#define ADDZERO16(z) \
	VADDPS z, Z0, Z0; \
	VADDPS z, Z1, Z1; \
	VADDPS z, Z2, Z2; \
	VADDPS z, Z3, Z3; \
	VADDPS z, Z4, Z4; \
	VADDPS z, Z5, Z5; \
	VADDPS z, Z6, Z6; \
	VADDPS z, Z7, Z7; \
	VADDPS z, Z8, Z8; \
	VADDPS z, Z9, Z9; \
	VADDPS z, Z10, Z10; \
	VADDPS z, Z11, Z11; \
	VADDPS z, Z12, Z12; \
	VADDPS z, Z13, Z13; \
	VADDPS z, Z14, Z14; \
	VADDPS z, Z15, Z15

// func gemm8x32(kc int, a *float32, lda int, bp0, bp1, o *float32, ldd int, zero bool)
//
// 8x32 register tile over two packed strips: 16 ZMM accumulators, twice what
// two FMA ports at 4 cycles of latency need in flight, so a late load or
// broadcast stalls nothing (a 4x32 tile's 8 cover the latency exactly and
// measured 12-19 % slower in every product). Per K step two 64-byte B reads
// and eight A broadcasts feed 16 fused multiply-adds (512 flops). Rows r of A
// and of the output are lda and ldd floats apart; the two strips are adjacent
// output columns, so o[r*ldd:][0:32] is one run. The tile is added into the
// output, or to +0 when zero is set.
TEXT ·gemm8x32(SB), NOSPLIT, $0-57
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ bp0+24(FP), SI
	MOVQ bp1+32(FP), BX
	MOVQ o+40(FP), DI
	MOVQ ldd+48(FP), R12
	SHLQ $2, R9
	SHLQ $2, R12
	LEAQ (R9)(R9*2), AX
	LEAQ (R8)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

kloop:
	VMOVUPS (SI), Z16
	VMOVUPS (BX), Z17
	VBROADCASTSS (R8), Z18
	VFMADD231PS Z16, Z18, Z0
	VFMADD231PS Z17, Z18, Z1
	VBROADCASTSS (R8)(R9*1), Z19
	VFMADD231PS Z16, Z19, Z2
	VFMADD231PS Z17, Z19, Z3
	VBROADCASTSS (R8)(R9*2), Z18
	VFMADD231PS Z16, Z18, Z4
	VFMADD231PS Z17, Z18, Z5
	VBROADCASTSS (R10), Z19
	VFMADD231PS Z16, Z19, Z6
	VFMADD231PS Z17, Z19, Z7
	VBROADCASTSS (R10)(R9*1), Z18
	VFMADD231PS Z16, Z18, Z8
	VFMADD231PS Z17, Z18, Z9
	VBROADCASTSS (R10)(R9*2), Z19
	VFMADD231PS Z16, Z19, Z10
	VFMADD231PS Z17, Z19, Z11
	VBROADCASTSS (R11), Z18
	VFMADD231PS Z16, Z18, Z12
	VFMADD231PS Z17, Z18, Z13
	VBROADCASTSS (R11)(R9*1), Z19
	VFMADD231PS Z16, Z19, Z14
	VFMADD231PS Z17, Z19, Z15
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $4, R8
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JNE  kloop

	LEAQ (R12)(R12*2), AX
	CMPB zero+56(FP), $0
	JNE  zstart
	ADD8x32
	JMP  store

zstart:
	VPXORD Z16, Z16, Z16
	ADDZERO16(Z16)

store:
	STORE8x32
	VZEROUPPER
	RET

// func gemm8x32o(kc int, a *float32, lda int, xb0, xb1 *float32, offs *int32, o *float32, ldd int, zero bool)
//
// gemm8x32 reading B through one offset table from two window bases: K step
// p takes strip 0 at xb0 + 4·offs[p] and strip 1 at xb1 + 4·offs[p]. The
// bases are independent, so a pair whose second strip starts the next image
// row is no special case.
TEXT ·gemm8x32o(SB), NOSPLIT, $0-65
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ xb0+24(FP), SI
	MOVQ xb1+32(FP), BX
	MOVQ offs+40(FP), R13
	MOVQ o+48(FP), DI
	MOVQ ldd+56(FP), R12
	SHLQ $2, R9
	SHLQ $2, R12
	LEAQ (R9)(R9*2), AX
	LEAQ (R8)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

kloop:
	MOVLQSX (R13), AX
	VMOVUPS (SI)(AX*4), Z16
	VMOVUPS (BX)(AX*4), Z17
	VBROADCASTSS (R8), Z18
	VFMADD231PS Z16, Z18, Z0
	VFMADD231PS Z17, Z18, Z1
	VBROADCASTSS (R8)(R9*1), Z19
	VFMADD231PS Z16, Z19, Z2
	VFMADD231PS Z17, Z19, Z3
	VBROADCASTSS (R8)(R9*2), Z18
	VFMADD231PS Z16, Z18, Z4
	VFMADD231PS Z17, Z18, Z5
	VBROADCASTSS (R10), Z19
	VFMADD231PS Z16, Z19, Z6
	VFMADD231PS Z17, Z19, Z7
	VBROADCASTSS (R10)(R9*1), Z18
	VFMADD231PS Z16, Z18, Z8
	VFMADD231PS Z17, Z18, Z9
	VBROADCASTSS (R10)(R9*2), Z19
	VFMADD231PS Z16, Z19, Z10
	VFMADD231PS Z17, Z19, Z11
	VBROADCASTSS (R11), Z18
	VFMADD231PS Z16, Z18, Z12
	VFMADD231PS Z17, Z18, Z13
	VBROADCASTSS (R11)(R9*1), Z19
	VFMADD231PS Z16, Z19, Z14
	VFMADD231PS Z17, Z19, Z15
	ADDQ $4, R13
	ADDQ $4, R8
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JNE  kloop

	LEAQ (R12)(R12*2), AX
	CMPB zero+64(FP), $0
	JNE  zstart
	ADD8x32
	JMP  store

zstart:
	VPXORD Z16, Z16, Z16
	ADDZERO16(Z16)

store:
	STORE8x32
	VZEROUPPER
	RET

// The A-offset kernels: the left-hand operand read in place, element (r, p)
// of the tile at x[rowOff[r] + kOff[p]] — a conv's padded window with output
// positions or taps as rows, a matrix read transposed — against packed B
// strips. Row r's base x + 4·rowOff[r] is formed once; K step p adds
// 4·kOff[p] to all eight. The per-lane chain is the packed kernels': one
// accumulator from zero, one FMA per K step in ascending order, one add into
// the output (or to +0 under zero).

// func gemm8x32a(kc int, x *float32, rowOff, kOff *int32, bp0, bp1, o *float32, ldd int, zero bool)
//
// gemm8x32 with A read through rowOff[0:8] and kOff[0:kc].
TEXT ·gemm8x32a(SB), NOSPLIT, $0-65
	MOVQ kc+0(FP), CX
	MOVQ x+8(FP), AX
	MOVQ rowOff+16(FP), BX
	MOVLQSX (BX), DI
	LEAQ    (AX)(DI*4), DI
	MOVLQSX 4(BX), R8
	LEAQ    (AX)(R8*4), R8
	MOVLQSX 8(BX), R9
	LEAQ    (AX)(R9*4), R9
	MOVLQSX 12(BX), R10
	LEAQ    (AX)(R10*4), R10
	MOVLQSX 16(BX), R11
	LEAQ    (AX)(R11*4), R11
	MOVLQSX 20(BX), R12
	LEAQ    (AX)(R12*4), R12
	MOVLQSX 24(BX), R13
	LEAQ    (AX)(R13*4), R13
	MOVLQSX 28(BX), R14
	LEAQ    (AX)(R14*4), R14
	MOVQ kOff+24(FP), DX
	MOVQ bp0+32(FP), SI
	MOVQ bp1+40(FP), BX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

kloop:
	MOVLQSX (DX), AX
	VMOVUPS (SI), Z16
	VMOVUPS (BX), Z17
	VBROADCASTSS (DI)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z0
	VFMADD231PS Z17, Z18, Z1
	VBROADCASTSS (R8)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z2
	VFMADD231PS Z17, Z19, Z3
	VBROADCASTSS (R9)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z4
	VFMADD231PS Z17, Z18, Z5
	VBROADCASTSS (R10)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z6
	VFMADD231PS Z17, Z19, Z7
	VBROADCASTSS (R11)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z8
	VFMADD231PS Z17, Z18, Z9
	VBROADCASTSS (R12)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z10
	VFMADD231PS Z17, Z19, Z11
	VBROADCASTSS (R13)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z12
	VFMADD231PS Z17, Z18, Z13
	VBROADCASTSS (R14)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z14
	VFMADD231PS Z17, Z19, Z15
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $4, DX
	DECQ CX
	JNE  kloop

	MOVQ o+48(FP), DI
	MOVQ ldd+56(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), AX
	CMPB zero+64(FP), $0
	JNE  zstart
	ADD8x32
	JMP  store

zstart:
	VPXORD Z16, Z16, Z16
	ADDZERO16(Z16)

store:
	STORE8x32
	VZEROUPPER
	RET

// func gemm8x16a(kc int, x *float32, rowOff, kOff *int32, bp, o *float32, ldd int, zero bool)
//
// gemm8x32a over one strip: eight ZMM accumulators, row r in Z(r), for a
// product one strip wide and the odd strip of a wider one.
TEXT ·gemm8x16a(SB), NOSPLIT, $0-57
	MOVQ kc+0(FP), CX
	MOVQ x+8(FP), AX
	MOVQ rowOff+16(FP), BX
	MOVLQSX (BX), DI
	LEAQ    (AX)(DI*4), DI
	MOVLQSX 4(BX), R8
	LEAQ    (AX)(R8*4), R8
	MOVLQSX 8(BX), R9
	LEAQ    (AX)(R9*4), R9
	MOVLQSX 12(BX), R10
	LEAQ    (AX)(R10*4), R10
	MOVLQSX 16(BX), R11
	LEAQ    (AX)(R11*4), R11
	MOVLQSX 20(BX), R12
	LEAQ    (AX)(R12*4), R12
	MOVLQSX 24(BX), R13
	LEAQ    (AX)(R13*4), R13
	MOVLQSX 28(BX), R14
	LEAQ    (AX)(R14*4), R14
	MOVQ kOff+24(FP), DX
	MOVQ bp+32(FP), SI

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

kloop:
	MOVLQSX (DX), AX
	VMOVUPS (SI), Z16
	VBROADCASTSS (DI)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z0
	VBROADCASTSS (R8)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z1
	VBROADCASTSS (R9)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z2
	VBROADCASTSS (R10)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z3
	VBROADCASTSS (R11)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z4
	VBROADCASTSS (R12)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z5
	VBROADCASTSS (R13)(AX*4), Z18
	VFMADD231PS Z16, Z18, Z6
	VBROADCASTSS (R14)(AX*4), Z19
	VFMADD231PS Z16, Z19, Z7
	ADDQ $64, SI
	ADDQ $4, DX
	DECQ CX
	JNE  kloop

	MOVQ o+40(FP), DI
	MOVQ ldd+48(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), AX
	CMPB zero+56(FP), $0
	JNE  zstart
	MOVQ   DI, DX
	VADDPS (DX), Z0, Z0
	VADDPS (DX)(R12*1), Z1, Z1
	VADDPS (DX)(R12*2), Z2, Z2
	ADDQ   AX, DX
	VADDPS (DX), Z3, Z3
	VADDPS (DX)(R12*1), Z4, Z4
	VADDPS (DX)(R12*2), Z5, Z5
	ADDQ   AX, DX
	VADDPS (DX), Z6, Z6
	VADDPS (DX)(R12*1), Z7, Z7
	JMP  store

zstart:
	VPXORD Z16, Z16, Z16
	VADDPS Z16, Z0, Z0
	VADDPS Z16, Z1, Z1
	VADDPS Z16, Z2, Z2
	VADDPS Z16, Z3, Z3
	VADDPS Z16, Z4, Z4
	VADDPS Z16, Z5, Z5
	VADDPS Z16, Z6, Z6
	VADDPS Z16, Z7, Z7

store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(R12*1)
	VMOVUPS Z2, (DI)(R12*2)
	ADDQ    AX, DI
	VMOVUPS Z3, (DI)
	VMOVUPS Z4, (DI)(R12*1)
	VMOVUPS Z5, (DI)(R12*2)
	ADDQ    AX, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, (DI)(R12*1)
	VZEROUPPER
	RET

// func gemm1x64s(kc, nq int, a, bp, o *float32, zero bool)
//
// gemm1x16s four packed strips at a time: one ZMM accumulator per strip, as
// one row of gemm4x32 has, and four strips in flight so the chains do not
// wait on each other. Strip s of a group starts s·kc·64 bytes into it; nq
// groups are consecutive. kc and nq must be ≥ 1.
TEXT ·gemm1x64s(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), BX
	MOVQ nq+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ bp+24(FP), SI
	MOVQ o+32(FP), DI
	MOVBLZX zero+40(FP), R12
	VPXORD Z5, Z5, Z5
	MOVQ BX, R10
	SHLQ $6, R10
	LEAQ (R10)(R10*2), R11
	LEAQ (R9)(BX*4), R9
	NEGQ BX

qloop:
	MOVQ BX, CX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3

kloop:
	VBROADCASTSS (R9)(CX*4), Z4
	VFMADD231PS (SI), Z4, Z0
	VFMADD231PS (SI)(R10*1), Z4, Z1
	VFMADD231PS (SI)(R10*2), Z4, Z2
	VFMADD231PS (SI)(R11*1), Z4, Z3
	ADDQ $64, SI
	INCQ CX
	JNE  kloop

	TESTQ R12, R12
	JNE  zstart
	VADDPS (DI), Z0, Z0
	VADDPS 64(DI), Z1, Z1
	VADDPS 128(DI), Z2, Z2
	VADDPS 192(DI), Z3, Z3
	JMP  store

zstart:
	VADDPS Z5, Z0, Z0
	VADDPS Z5, Z1, Z1
	VADDPS Z5, Z2, Z2
	VADDPS Z5, Z3, Z3

store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ R11, SI
	ADDQ $256, DI
	DECQ DX
	JNE  qloop
	VZEROUPPER
	RET

// func gemm1x64so(kc, nq int, a, xb *float32, offs *int32, o *float32, zero bool)
//
// gemm1x16so four strips at a time: the 4·nq strips are consecutive in one
// image row, strip s reading K step p at xb + 64·s + 4·offs[p].
TEXT ·gemm1x64so(SB), NOSPLIT, $0-49
	MOVQ kc+0(FP), BX
	MOVQ nq+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ xb+24(FP), SI
	MOVQ offs+32(FP), R10
	MOVQ o+40(FP), DI
	MOVBLZX zero+48(FP), R11
	VPXORD Z5, Z5, Z5
	LEAQ (R9)(BX*4), R9
	LEAQ (R10)(BX*4), R10
	NEGQ BX

qloop:
	MOVQ BX, CX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3

kloop:
	MOVLQSX (R10)(CX*4), AX
	VBROADCASTSS (R9)(CX*4), Z4
	VFMADD231PS (SI)(AX*4), Z4, Z0
	VFMADD231PS 64(SI)(AX*4), Z4, Z1
	VFMADD231PS 128(SI)(AX*4), Z4, Z2
	VFMADD231PS 192(SI)(AX*4), Z4, Z3
	INCQ CX
	JNE  kloop

	TESTQ R11, R11
	JNE  zstart
	VADDPS (DI), Z0, Z0
	VADDPS 64(DI), Z1, Z1
	VADDPS 128(DI), Z2, Z2
	VADDPS 192(DI), Z3, Z3
	JMP  store

zstart:
	VADDPS Z5, Z0, Z0
	VADDPS Z5, Z1, Z1
	VADDPS Z5, Z2, Z2
	VADDPS Z5, Z3, Z3

store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ DX
	JNE  qloop
	VZEROUPPER
	RET

// The register-tiled dot kernels behind dotTile: mr rows of A against nr rows
// of B, mr·nr = 12 inner products per call, each over k floats (k a positive
// multiple of 8), written to o[i·ldo + j]. Every output keeps dot8's 32 lane
// partials in two ZMM accumulators, Z(2t) = Y0‖Y1 and Z(2t+1) = Y2‖Y3 for
// output t: a 32-float block adds its products lane by lane exactly as dot8's
// four YMM do, and the remaining 8-float blocks go into lanes 0–7 of Z(2t)
// under the mask K1 (a VEX or unmasked write would clear or touch lanes 8–15,
// Y1's partials). DOTSUM then reduces in dot8's order. So each output is
// dot8(k, a_i, b_j) to the bit, with the A operand in the multiplier's first
// source as dot8 has it; what the tile buys is that a B row is loaded once
// per mr A rows and an A row once per nr B rows.

// DOTSUM(za, zb, zs, ys, xs, xt, out) stores at out the sum of one output's
// partials za = Y0‖Y1 and zb = Y2‖Y3 in dot8's order: (Y0+Y1) + (Y2+Y3),
// then the two 128-bit halves, then two VHADDPS, left operands first as dot8
// adds them. zs (ys, xs its lower halves) and xt are scratch in Z0–Z15 (the
// VEX-only VHADDPS needs them there), zs may be za; Z24 and Z25 are
// clobbered.
#define DOTSUM(za, zb, zs, ys, xs, xt, out) \
	VEXTRACTF64X4 $1, za, Y24; \
	VADDPS        Z24, za, zs; \
	VEXTRACTF64X4 $1, zb, Y25; \
	VADDPS        Z25, zb, Z25; \
	VADDPS        Z25, zs, zs; \
	VEXTRACTF128  $1, ys, xt; \
	VADDPS        xt, xs, xs; \
	VHADDPS       xs, xs, xs; \
	VHADDPS       xs, xs, xs; \
	VMOVSS        xs, out

// DOTSUM12(o0, …, o11) reduces the twelve outputs Z0‖Z1 … Z22‖Z23 to the
// float32 operands o0…o11.
#define DOTSUM12(o0, o1, o2, o3, o4, o5, o6, o7, o8, o9, o10, o11) \
	DOTSUM(Z0, Z1, Z0, Y0, X0, X1, o0); \
	DOTSUM(Z2, Z3, Z2, Y2, X2, X3, o1); \
	DOTSUM(Z4, Z5, Z4, Y4, X4, X5, o2); \
	DOTSUM(Z6, Z7, Z6, Y6, X6, X7, o3); \
	DOTSUM(Z8, Z9, Z8, Y8, X8, X9, o4); \
	DOTSUM(Z10, Z11, Z10, Y10, X10, X11, o5); \
	DOTSUM(Z12, Z13, Z12, Y12, X12, X13, o6); \
	DOTSUM(Z14, Z15, Z14, Y14, X14, X15, o7); \
	DOTSUM(Z16, Z17, Z0, Y0, X0, X1, o8); \
	DOTSUM(Z18, Z19, Z0, Y0, X0, X1, o9); \
	DOTSUM(Z20, Z21, Z0, Y0, X0, X1, o10); \
	DOTSUM(Z22, Z23, Z0, Y0, X0, X1, o11)

// ZERO24 clears the 24 accumulators Z0–Z23.
#define ZERO24 \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	VPXORD Z4, Z4, Z4; \
	VPXORD Z5, Z5, Z5; \
	VPXORD Z6, Z6, Z6; \
	VPXORD Z7, Z7, Z7; \
	VPXORD Z8, Z8, Z8; \
	VPXORD Z9, Z9, Z9; \
	VPXORD Z10, Z10, Z10; \
	VPXORD Z11, Z11, Z11; \
	VPXORD Z12, Z12, Z12; \
	VPXORD Z13, Z13, Z13; \
	VPXORD Z14, Z14, Z14; \
	VPXORD Z15, Z15, Z15; \
	VPXORD Z16, Z16, Z16; \
	VPXORD Z17, Z17, Z17; \
	VPXORD Z18, Z18, Z18; \
	VPXORD Z19, Z19, Z19; \
	VPXORD Z20, Z20, Z20; \
	VPXORD Z21, Z21, Z21; \
	VPXORD Z22, Z22, Z22; \
	VPXORD Z23, Z23, Z23

// STEPmxn(off, a0, …, a11) is one 16-float step of an m×n tile, the rows'
// floats [off/4, off/4+16) into the twelve accumulators a0…a11 (output
// t = n·i + j in a(t)); STEPmxnM(a0, …, a11) is the 8-float step under K1
// into lanes 0–7. A rows are (R8) + i·R9, R10 standing at row 3 in the 4×3
// tile; B rows are (SI) + j·BX, R10, R11 and R12 standing at rows 3, 6 and 9
// in the 1×12 one.
#define STEP4x3(off, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11) \
	VMOVUPS off(R8), Z24; \
	VMOVUPS off(R8)(R9*1), Z25; \
	VMOVUPS off(R8)(R9*2), Z26; \
	VMOVUPS off(R10), Z27; \
	VMOVUPS off(SI), Z28; \
	VMOVUPS off(SI)(BX*1), Z29; \
	VMOVUPS off(SI)(BX*2), Z30; \
	VFMADD231PS Z28, Z24, a0; \
	VFMADD231PS Z29, Z24, a1; \
	VFMADD231PS Z30, Z24, a2; \
	VFMADD231PS Z28, Z25, a3; \
	VFMADD231PS Z29, Z25, a4; \
	VFMADD231PS Z30, Z25, a5; \
	VFMADD231PS Z28, Z26, a6; \
	VFMADD231PS Z29, Z26, a7; \
	VFMADD231PS Z30, Z26, a8; \
	VFMADD231PS Z28, Z27, a9; \
	VFMADD231PS Z29, Z27, a10; \
	VFMADD231PS Z30, Z27, a11

#define STEP4x3M(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11) \
	VMOVUPS.Z 0(R8), K1, Z24; \
	VMOVUPS.Z 0(R8)(R9*1), K1, Z25; \
	VMOVUPS.Z 0(R8)(R9*2), K1, Z26; \
	VMOVUPS.Z 0(R10), K1, Z27; \
	VMOVUPS.Z 0(SI), K1, Z28; \
	VMOVUPS.Z 0(SI)(BX*1), K1, Z29; \
	VMOVUPS.Z 0(SI)(BX*2), K1, Z30; \
	VFMADD231PS Z28, Z24, K1, a0; \
	VFMADD231PS Z29, Z24, K1, a1; \
	VFMADD231PS Z30, Z24, K1, a2; \
	VFMADD231PS Z28, Z25, K1, a3; \
	VFMADD231PS Z29, Z25, K1, a4; \
	VFMADD231PS Z30, Z25, K1, a5; \
	VFMADD231PS Z28, Z26, K1, a6; \
	VFMADD231PS Z29, Z26, K1, a7; \
	VFMADD231PS Z30, Z26, K1, a8; \
	VFMADD231PS Z28, Z27, K1, a9; \
	VFMADD231PS Z29, Z27, K1, a10; \
	VFMADD231PS Z30, Z27, K1, a11

#define STEP1x12(off, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11) \
	VMOVUPS off(R8), Z24; \
	VFMADD231PS off(SI), Z24, a0; \
	VFMADD231PS off(SI)(BX*1), Z24, a1; \
	VFMADD231PS off(SI)(BX*2), Z24, a2; \
	VFMADD231PS off(R10), Z24, a3; \
	VFMADD231PS off(R10)(BX*1), Z24, a4; \
	VFMADD231PS off(R10)(BX*2), Z24, a5; \
	VFMADD231PS off(R11), Z24, a6; \
	VFMADD231PS off(R11)(BX*1), Z24, a7; \
	VFMADD231PS off(R11)(BX*2), Z24, a8; \
	VFMADD231PS off(R12), Z24, a9; \
	VFMADD231PS off(R12)(BX*1), Z24, a10; \
	VFMADD231PS off(R12)(BX*2), Z24, a11

#define STEP1x12M(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11) \
	VMOVUPS.Z 0(R8), K1, Z24; \
	VFMADD231PS 0(SI), Z24, K1, a0; \
	VFMADD231PS 0(SI)(BX*1), Z24, K1, a1; \
	VFMADD231PS 0(SI)(BX*2), Z24, K1, a2; \
	VFMADD231PS 0(R10), Z24, K1, a3; \
	VFMADD231PS 0(R10)(BX*1), Z24, K1, a4; \
	VFMADD231PS 0(R10)(BX*2), Z24, K1, a5; \
	VFMADD231PS 0(R11), Z24, K1, a6; \
	VFMADD231PS 0(R11)(BX*1), Z24, K1, a7; \
	VFMADD231PS 0(R11)(BX*2), Z24, K1, a8; \
	VFMADD231PS 0(R12), Z24, K1, a9; \
	VFMADD231PS 0(R12)(BX*1), Z24, K1, a10; \
	VFMADD231PS 0(R12)(BX*2), Z24, K1, a11


// func dot4x3(k int, a *float32, lda int, b *float32, ldb int, o *float32, ldo int)
TEXT ·dot4x3(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ b+24(FP), SI
	MOVQ ldb+32(FP), BX
	MOVQ o+40(FP), DI
	SHLQ $2, R9
	SHLQ $2, BX
	LEAQ (R8)(R9*2), R10
	ADDQ R9, R10
	MOVL $0xff, AX
	KMOVW AX, K1
	ZERO24
	MOVQ CX, DX
	ANDQ $24, DX
	SHRQ $5, CX
	JEQ  tail8

loop32:
	STEP4x3(0, Z0, Z2, Z4, Z6, Z8, Z10, Z12, Z14, Z16, Z18, Z20, Z22)
	STEP4x3(64, Z1, Z3, Z5, Z7, Z9, Z11, Z13, Z15, Z17, Z19, Z21, Z23)
	ADDQ $128, R8
	ADDQ $128, R10
	ADDQ $128, SI
	DECQ CX
	JNE  loop32

tail8:
	TESTQ DX, DX
	JEQ   reduce

loop8:
	STEP4x3M(Z0, Z2, Z4, Z6, Z8, Z10, Z12, Z14, Z16, Z18, Z20, Z22)
	ADDQ $32, R8
	ADDQ $32, R10
	ADDQ $32, SI
	SUBQ $8, DX
	JNE  loop8

reduce:
	MOVQ ldo+48(FP), R9
	SHLQ $2, R9
	LEAQ (DI)(R9*2), R10
	ADDQ R9, R10
	DOTSUM12(0(DI), 4(DI), 8(DI), 0(DI)(R9*1), 4(DI)(R9*1), 8(DI)(R9*1), 0(DI)(R9*2), 4(DI)(R9*2), 8(DI)(R9*2), 0(R10), 4(R10), 8(R10))
	VZEROUPPER
	RET

// func dot1x12(k int, a *float32, lda int, b *float32, ldb int, o *float32, ldo int)
TEXT ·dot1x12(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ b+24(FP), SI
	MOVQ ldb+32(FP), BX
	MOVQ o+40(FP), DI
	SHLQ $2, R9
	SHLQ $2, BX
	LEAQ (SI)(BX*2), R10
	ADDQ BX, R10
	LEAQ (R10)(BX*2), R11
	ADDQ BX, R11
	LEAQ (R11)(BX*2), R12
	ADDQ BX, R12
	MOVL $0xff, AX
	KMOVW AX, K1
	ZERO24
	MOVQ CX, DX
	ANDQ $24, DX
	SHRQ $5, CX
	JEQ  tail8

loop32:
	STEP1x12(0, Z0, Z2, Z4, Z6, Z8, Z10, Z12, Z14, Z16, Z18, Z20, Z22)
	STEP1x12(64, Z1, Z3, Z5, Z7, Z9, Z11, Z13, Z15, Z17, Z19, Z21, Z23)
	ADDQ $128, R8
	ADDQ $128, SI
	ADDQ $128, R10
	ADDQ $128, R11
	ADDQ $128, R12
	DECQ CX
	JNE  loop32

tail8:
	TESTQ DX, DX
	JEQ   reduce

loop8:
	STEP1x12M(Z0, Z2, Z4, Z6, Z8, Z10, Z12, Z14, Z16, Z18, Z20, Z22)
	ADDQ $32, R8
	ADDQ $32, SI
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	SUBQ $8, DX
	JNE  loop8

reduce:
	MOVQ ldo+48(FP), R9
	SHLQ $2, R9
	DOTSUM12(0(DI), 4(DI), 8(DI), 12(DI), 16(DI), 20(DI), 24(DI), 28(DI), 32(DI), 36(DI), 40(DI), 44(DI))
	VZEROUPPER
	RET

// func expandSigns512Asm(rows int, w *uint64, ldw int, shift uint, dst *float32, ldd int)
//
// One strip row a step: the row's 16 bits, shifted down from the word, are
// the lane mask K1, and VBLENDMPS takes −1.0 where it is set and +1.0 where
// it is clear. Rows are ldw words apart at w and ldd floats apart at dst.
TEXT ·expandSigns512Asm(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R8
	MOVQ w+8(FP), SI
	MOVQ ldw+16(FP), R9
	MOVQ shift+24(FP), CX
	MOVQ dst+32(FP), DI
	MOVQ ldd+40(FP), R10
	MOVL $0x3f800000, AX
	VPBROADCASTD AX, Z0
	MOVL $0xbf800000, AX
	VPBROADCASTD AX, Z1

expand:
	MOVQ      (SI), AX
	SHRQ      CX, AX
	KMOVW     AX, K1
	VBLENDMPS Z1, Z0, K1, Z2
	VMOVUPS   Z2, (DI)
	LEAQ      (SI)(R9*8), SI
	LEAQ      (DI)(R10*4), DI
	DECQ      R8
	JNE       expand
	VZEROUPPER
	RET

// SIGN16 adds ±x to one accumulator: the group's 16 bits, loaded from
// off(SI) as the lane mask k, pick 0 − x (Z18) where a bit is set and x (Z17)
// where it is clear, and acc is added to the pick t. The pick is the first
// source, as the product is the FMA's, so where both are NaN the pick's
// payload wins, as the multiplicand's does in gemm1x64s.
#define SIGN16(off, k, t, acc) \
	KMOVW     off(SI), k; \
	VBLENDMPS Z18, Z17, k, t; \
	VADDPS    acc, t, acc

// func gemm1x256w(kc int, a *float32, w *uint64, ldw int, o *float32, zero bool)
//
// One row against 256 columns of sign words, with nothing expanded: for K
// step p, column j takes x_p where bit j of row p's four words (w + p·ldw
// words) is clear and 0 − x_p where it is set, one accumulator per 16
// columns, so 16 chains run at once. x·(±1.0) is exact, so acc + (±x) is the
// FMA by ±1.0 that gemm1x64s computes on expanded strips; 0 − x negates
// every value but a NaN, which it keeps as the multiply does. kc must be ≥ 1.
TEXT ·gemm1x256w(SB), NOSPLIT, $0-41
	MOVQ    kc+0(FP), BX
	MOVQ    a+8(FP), R9
	MOVQ    w+16(FP), SI
	MOVQ    ldw+24(FP), R10
	MOVQ    o+32(FP), DI
	MOVBLZX zero+40(FP), R12
	SHLQ    $3, R10
	VPXORD  Z16, Z16, Z16
	VPXORD  Z0, Z0, Z0
	VPXORD  Z1, Z1, Z1
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	VPXORD  Z4, Z4, Z4
	VPXORD  Z5, Z5, Z5
	VPXORD  Z6, Z6, Z6
	VPXORD  Z7, Z7, Z7
	VPXORD  Z8, Z8, Z8
	VPXORD  Z9, Z9, Z9
	VPXORD  Z10, Z10, Z10
	VPXORD  Z11, Z11, Z11
	VPXORD  Z12, Z12, Z12
	VPXORD  Z13, Z13, Z13
	VPXORD  Z14, Z14, Z14
	VPXORD  Z15, Z15, Z15
	LEAQ    (R9)(BX*4), R9
	NEGQ    BX

wloop:
	VBROADCASTSS (R9)(BX*4), Z17
	VSUBPS       Z17, Z16, Z18
	SIGN16(0, K1, Z19, Z0)
	SIGN16(2, K2, Z20, Z1)
	SIGN16(4, K3, Z21, Z2)
	SIGN16(6, K4, Z22, Z3)
	SIGN16(8, K5, Z23, Z4)
	SIGN16(10, K6, Z24, Z5)
	SIGN16(12, K7, Z25, Z6)
	SIGN16(14, K1, Z26, Z7)
	SIGN16(16, K2, Z27, Z8)
	SIGN16(18, K3, Z28, Z9)
	SIGN16(20, K4, Z29, Z10)
	SIGN16(22, K5, Z30, Z11)
	SIGN16(24, K6, Z31, Z12)
	SIGN16(26, K7, Z19, Z13)
	SIGN16(28, K1, Z20, Z14)
	SIGN16(30, K2, Z21, Z15)
	ADDQ         R10, SI
	INCQ         BX
	JNE          wloop

	TESTQ  R12, R12
	JNE    wzero
	VADDPS (DI), Z0, Z0
	VADDPS 64(DI), Z1, Z1
	VADDPS 128(DI), Z2, Z2
	VADDPS 192(DI), Z3, Z3
	VADDPS 256(DI), Z4, Z4
	VADDPS 320(DI), Z5, Z5
	VADDPS 384(DI), Z6, Z6
	VADDPS 448(DI), Z7, Z7
	VADDPS 512(DI), Z8, Z8
	VADDPS 576(DI), Z9, Z9
	VADDPS 640(DI), Z10, Z10
	VADDPS 704(DI), Z11, Z11
	VADDPS 768(DI), Z12, Z12
	VADDPS 832(DI), Z13, Z13
	VADDPS 896(DI), Z14, Z14
	VADDPS 960(DI), Z15, Z15
	JMP    wstore

wzero:
	VADDPS Z16, Z0, Z0
	VADDPS Z16, Z1, Z1
	VADDPS Z16, Z2, Z2
	VADDPS Z16, Z3, Z3
	VADDPS Z16, Z4, Z4
	VADDPS Z16, Z5, Z5
	VADDPS Z16, Z6, Z6
	VADDPS Z16, Z7, Z7
	VADDPS Z16, Z8, Z8
	VADDPS Z16, Z9, Z9
	VADDPS Z16, Z10, Z10
	VADDPS Z16, Z11, Z11
	VADDPS Z16, Z12, Z12
	VADDPS Z16, Z13, Z13
	VADDPS Z16, Z14, Z14
	VADDPS Z16, Z15, Z15

wstore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	VMOVUPS Z8, 512(DI)
	VMOVUPS Z9, 576(DI)
	VMOVUPS Z10, 640(DI)
	VMOVUPS Z11, 704(DI)
	VMOVUPS Z12, 768(DI)
	VMOVUPS Z13, 832(DI)
	VMOVUPS Z14, 896(DI)
	VMOVUPS Z15, 960(DI)
	VZEROUPPER
	RET
