#include "textflag.h"

// The 512-bit twins of the four float strip kernels in gemm_amd64.s, behind
// useGemm512. A 16-float strip is one ZMM register, so panel layout and
// offset tables are unchanged; what changes is the register tile. Every
// output lane still owns one accumulator that starts at zero, takes one fused
// multiply-add per K step in ascending order and is added into the output
// once — the chain of the 256-bit kernels, hence their bits. AVX512F only;
// every kernel ends in VZEROUPPER.

// func gemm8x32(kc int, a *float32, lda int, bp0, bp1, o *float32, ldd int)
//
// 8x32 register tile over two packed strips: 16 ZMM accumulators, twice what
// two FMA ports at 4 cycles of latency need in flight, so a late load or
// broadcast stalls nothing (a 4x32 tile's 8 cover the latency exactly and
// measured 12-19 % slower in every product). Per K step two 64-byte B reads
// and eight A broadcasts feed 16 fused multiply-adds (512 flops). Rows r of A
// and of the output are lda and ldd floats apart; the two strips are adjacent
// output columns, so o[r*ldd:][0:32] is one run.
TEXT ·gemm8x32(SB), NOSPLIT, $0-56
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
	VADDPS (DI), Z0, Z0
	VMOVUPS Z0, (DI)
	VADDPS 64(DI), Z1, Z1
	VMOVUPS Z1, 64(DI)
	VADDPS (DI)(R12*1), Z2, Z2
	VMOVUPS Z2, (DI)(R12*1)
	VADDPS 64(DI)(R12*1), Z3, Z3
	VMOVUPS Z3, 64(DI)(R12*1)
	VADDPS (DI)(R12*2), Z4, Z4
	VMOVUPS Z4, (DI)(R12*2)
	VADDPS 64(DI)(R12*2), Z5, Z5
	VMOVUPS Z5, 64(DI)(R12*2)
	ADDQ AX, DI
	VADDPS (DI), Z6, Z6
	VMOVUPS Z6, (DI)
	VADDPS 64(DI), Z7, Z7
	VMOVUPS Z7, 64(DI)
	VADDPS (DI)(R12*1), Z8, Z8
	VMOVUPS Z8, (DI)(R12*1)
	VADDPS 64(DI)(R12*1), Z9, Z9
	VMOVUPS Z9, 64(DI)(R12*1)
	VADDPS (DI)(R12*2), Z10, Z10
	VMOVUPS Z10, (DI)(R12*2)
	VADDPS 64(DI)(R12*2), Z11, Z11
	VMOVUPS Z11, 64(DI)(R12*2)
	ADDQ AX, DI
	VADDPS (DI), Z12, Z12
	VMOVUPS Z12, (DI)
	VADDPS 64(DI), Z13, Z13
	VMOVUPS Z13, 64(DI)
	VADDPS (DI)(R12*1), Z14, Z14
	VMOVUPS Z14, (DI)(R12*1)
	VADDPS 64(DI)(R12*1), Z15, Z15
	VMOVUPS Z15, 64(DI)(R12*1)
	VZEROUPPER
	RET

// func gemm8x32o(kc int, a *float32, lda int, xb0, xb1 *float32, offs *int32, o *float32, ldd int)
//
// gemm8x32 reading B through one offset table from two window bases: K step
// p takes strip 0 at xb0 + 4·offs[p] and strip 1 at xb1 + 4·offs[p]. The
// bases are independent, so a pair whose second strip starts the next image
// row is no special case.
TEXT ·gemm8x32o(SB), NOSPLIT, $0-64
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
	VADDPS (DI), Z0, Z0
	VMOVUPS Z0, (DI)
	VADDPS 64(DI), Z1, Z1
	VMOVUPS Z1, 64(DI)
	VADDPS (DI)(R12*1), Z2, Z2
	VMOVUPS Z2, (DI)(R12*1)
	VADDPS 64(DI)(R12*1), Z3, Z3
	VMOVUPS Z3, 64(DI)(R12*1)
	VADDPS (DI)(R12*2), Z4, Z4
	VMOVUPS Z4, (DI)(R12*2)
	VADDPS 64(DI)(R12*2), Z5, Z5
	VMOVUPS Z5, 64(DI)(R12*2)
	ADDQ AX, DI
	VADDPS (DI), Z6, Z6
	VMOVUPS Z6, (DI)
	VADDPS 64(DI), Z7, Z7
	VMOVUPS Z7, 64(DI)
	VADDPS (DI)(R12*1), Z8, Z8
	VMOVUPS Z8, (DI)(R12*1)
	VADDPS 64(DI)(R12*1), Z9, Z9
	VMOVUPS Z9, 64(DI)(R12*1)
	VADDPS (DI)(R12*2), Z10, Z10
	VMOVUPS Z10, (DI)(R12*2)
	VADDPS 64(DI)(R12*2), Z11, Z11
	VMOVUPS Z11, 64(DI)(R12*2)
	ADDQ AX, DI
	VADDPS (DI), Z12, Z12
	VMOVUPS Z12, (DI)
	VADDPS 64(DI), Z13, Z13
	VMOVUPS Z13, 64(DI)
	VADDPS (DI)(R12*1), Z14, Z14
	VMOVUPS Z14, (DI)(R12*1)
	VADDPS 64(DI)(R12*1), Z15, Z15
	VMOVUPS Z15, 64(DI)(R12*1)
	VZEROUPPER
	RET

// func gemm1x64s(kc, nq int, a, bp, o *float32)
//
// gemm1x16s four packed strips at a time: one ZMM accumulator per strip, as
// one row of gemm4x32 has, and four strips in flight so the chains do not
// wait on each other. Strip s of a group starts s·kc·64 bytes into it; nq
// groups are consecutive. kc and nq must be ≥ 1.
TEXT ·gemm1x64s(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), BX
	MOVQ nq+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ bp+24(FP), SI
	MOVQ o+32(FP), DI
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

	VADDPS (DI), Z0, Z0
	VMOVUPS Z0, (DI)
	VADDPS 64(DI), Z1, Z1
	VMOVUPS Z1, 64(DI)
	VADDPS 128(DI), Z2, Z2
	VMOVUPS Z2, 128(DI)
	VADDPS 192(DI), Z3, Z3
	VMOVUPS Z3, 192(DI)
	ADDQ R11, SI
	ADDQ $256, DI
	DECQ DX
	JNE  qloop
	VZEROUPPER
	RET

// func gemm1x64so(kc, nq int, a, xb *float32, offs *int32, o *float32)
//
// gemm1x16so four strips at a time: the 4·nq strips are consecutive in one
// image row, strip s reading K step p at xb + 64·s + 4·offs[p].
TEXT ·gemm1x64so(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), BX
	MOVQ nq+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ xb+24(FP), SI
	MOVQ offs+32(FP), R10
	MOVQ o+40(FP), DI
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

	VADDPS (DI), Z0, Z0
	VMOVUPS Z0, (DI)
	VADDPS 64(DI), Z1, Z1
	VMOVUPS Z1, 64(DI)
	VADDPS 128(DI), Z2, Z2
	VMOVUPS Z2, 128(DI)
	VADDPS 192(DI), Z3, Z3
	VMOVUPS Z3, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ DX
	JNE  qloop
	VZEROUPPER
	RET
