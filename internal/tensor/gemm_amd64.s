#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x16(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32)
//
// 4x16 register-tiled micro-kernel: 8 YMM accumulators hold the output tile
// across the whole K loop, so the only memory traffic per K step is one
// 64-byte packed-B read plus four 4-byte A broadcasts, and each step retires
// 8 fused multiply-adds (64 flops). Accumulators are added into the output
// rows once at the end.
TEXT ·gemm4x16(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ bp+40(FP), SI
	MOVQ o0+48(FP), DI
	MOVQ o1+56(FP), DX
	MOVQ o2+64(FP), R12
	MOVQ o3+72(FP), R13

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

kloop:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VBROADCASTSS (R8), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R9), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (R10), Y10
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VBROADCASTSS (R11), Y11
	VFMADD231PS Y8, Y11, Y6
	VFMADD231PS Y9, Y11, Y7
	ADDQ $64, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JNE  kloop

	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS 32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VADDPS (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	VADDPS 32(DX), Y3, Y3
	VMOVUPS Y3, 32(DX)
	VADDPS (R12), Y4, Y4
	VMOVUPS Y4, (R12)
	VADDPS 32(R12), Y5, Y5
	VMOVUPS Y5, 32(R12)
	VADDPS (R13), Y6, Y6
	VMOVUPS Y6, (R13)
	VADDPS 32(R13), Y7, Y7
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func gemm1x16s(kc, ns int, a, bp, o *float32)
//
// Skinny-M micro-kernel: one output row across ns consecutive 16-wide packed
// strips. Each strip holds a 2-YMM accumulator pair across its whole K loop
// (one broadcast + two fused multiply-adds per K step), added into the output
// once at the end — the same single-accumulator, p-ascending order gemm4x16
// gives each of its rows, so a leftover row computes bit-identically to the
// rows of a full 4-row group. Strips are contiguous (strip s starts at
// bp + s·kc·16), so SI streams straight through the panel.
TEXT ·gemm1x16s(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), BX
	MOVQ ns+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ bp+24(FP), SI
	MOVQ o+32(FP), DI

sloop:
	MOVQ R9, R8
	MOVQ BX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

kloop:
	VBROADCASTSS (R8), Y2
	VMOVUPS (SI), Y3
	VFMADD231PS Y3, Y2, Y0
	VMOVUPS 32(SI), Y4
	VFMADD231PS Y4, Y2, Y1
	ADDQ $64, SI
	ADDQ $4, R8
	DECQ CX
	JNE  kloop

	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS 32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	DECQ DX
	JNE  sloop
	VZEROUPPER
	RET

// func gemm4x16o(kc int, a0, a1, a2, a3, xb *float32, offs *int32, o0, o1, o2, o3 *float32)
//
// gemm4x16 with the packed strip replaced by an offset table: K step p reads
// its 16 B values at xb + 4·offs[p] instead of bp + 64·p, so a convolution
// hands the kernel addresses into its zero-padded image window and never
// packs a strip. Accumulators, FMA order and the add-into-output epilogue are
// gemm4x16's, so both give every lane the same bits on the same values. One
// negative index counts K up to zero and addresses A and offs from their
// ends, which leaves the loop 17 uops a step against gemm4x16's 20.
TEXT ·gemm4x16o(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ xb+40(FP), SI
	MOVQ offs+48(FP), BX
	MOVQ o0+56(FP), DI
	MOVQ o1+64(FP), DX
	MOVQ o2+72(FP), R12
	MOVQ o3+80(FP), R13
	LEAQ (R8)(CX*4), R8
	LEAQ (R9)(CX*4), R9
	LEAQ (R10)(CX*4), R10
	LEAQ (R11)(CX*4), R11
	LEAQ (BX)(CX*4), BX
	NEGQ CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

kloop:
	MOVLQSX (BX)(CX*4), AX
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS 32(SI)(AX*4), Y9
	VBROADCASTSS (R8)(CX*4), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R9)(CX*4), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (R10)(CX*4), Y10
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VBROADCASTSS (R11)(CX*4), Y11
	VFMADD231PS Y8, Y11, Y6
	VFMADD231PS Y9, Y11, Y7
	INCQ CX
	JNE  kloop

	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS 32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VADDPS (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	VADDPS 32(DX), Y3, Y3
	VMOVUPS Y3, 32(DX)
	VADDPS (R12), Y4, Y4
	VMOVUPS Y4, (R12)
	VADDPS 32(R12), Y5, Y5
	VMOVUPS Y5, 32(R12)
	VADDPS (R13), Y6, Y6
	VMOVUPS Y6, (R13)
	VADDPS 32(R13), Y7, Y7
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func gemm1x16so(kc, ns int, a, xb *float32, offs *int32, o *float32)
//
// gemm1x16s over an offset table: one output row across ns consecutive
// 16-column strips of one image row, strip s reading K step p at
// xb + 64·s + 4·offs[p]. Per element the chain is gemm4x16o's, as gemm1x16s's
// is gemm4x16's.
TEXT ·gemm1x16so(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), BX
	MOVQ ns+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ xb+24(FP), SI
	MOVQ offs+32(FP), R10
	MOVQ o+40(FP), DI
	LEAQ (R9)(BX*4), R9
	LEAQ (R10)(BX*4), R10
	NEGQ BX

sloop:
	MOVQ BX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

kloop:
	MOVLQSX (R10)(CX*4), AX
	VBROADCASTSS (R9)(CX*4), Y2
	VMOVUPS (SI)(AX*4), Y3
	VFMADD231PS Y3, Y2, Y0
	VMOVUPS 32(SI)(AX*4), Y4
	VFMADD231PS Y4, Y2, Y1
	INCQ CX
	JNE  kloop

	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS 32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNE  sloop
	VZEROUPPER
	RET

// func dot8(n int, x, y *float32) float32
//
// Inner product over n elements (n a positive multiple of 8), using four
// independent YMM accumulators to hide FMA latency, then a horizontal sum.
// The accumulation order is fixed, so results are deterministic call-to-call.
TEXT ·dot8(SB), NOSPLIT, $0-28
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	MOVQ CX, BX
	ANDQ $-32, BX
	JEQ  tail8

loop32:
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	VMOVUPS 32(SI), Y5
	VFMADD231PS 32(DI), Y5, Y1
	VMOVUPS 64(SI), Y6
	VFMADD231PS 64(DI), Y6, Y2
	VMOVUPS 96(SI), Y7
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, BX
	JNE  loop32

tail8:
	ANDQ $24, CX
	JEQ  reduce

loop8:
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  loop8

reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func reluAsm(n int, p *float32)
//
// In-place ReLU over n floats (n a positive multiple of 8). Uses a compare
// mask rather than VMAXPS so the result is bit-identical to Go's
// `if v <= 0 { v = 0 }` on every input: predicate 6 (NLE_US) is true for
// v > 0 and for NaN, so NaN payloads pass through and -0 becomes +0 exactly
// like the scalar comparison.
TEXT ·reluAsm(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	VXORPS Y0, Y0, Y0

	MOVQ CX, BX
	ANDQ $-32, BX
	JEQ  tail8

loop32:
	VMOVUPS (SI), Y1
	VCMPPS  $6, Y0, Y1, Y2
	VANDPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)
	VMOVUPS 32(SI), Y3
	VCMPPS  $6, Y0, Y3, Y4
	VANDPS  Y4, Y3, Y3
	VMOVUPS Y3, 32(SI)
	VMOVUPS 64(SI), Y1
	VCMPPS  $6, Y0, Y1, Y2
	VANDPS  Y2, Y1, Y1
	VMOVUPS Y1, 64(SI)
	VMOVUPS 96(SI), Y3
	VCMPPS  $6, Y0, Y3, Y4
	VANDPS  Y4, Y3, Y3
	VMOVUPS Y3, 96(SI)
	ADDQ    $128, SI
	SUBQ    $32, BX
	JNE     loop32

tail8:
	ANDQ $24, CX
	JEQ  done

loop8:
	VMOVUPS (SI), Y1
	VCMPPS  $6, Y0, Y1, Y2
	VANDPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNE     loop8

done:
	VZEROUPPER
	RET

// func addScalarReluAsm(n int, p *float32, b float32)
//
// In-place p[i] = max(p[i]+b, 0) over n floats (n a positive multiple of 8):
// the bias-add epilogue and the ReLU clamp in one sweep. The clamp reuses
// reluAsm's compare-mask construction (predicate 6, NLE_US) so the result is
// bit-identical to the scalar `v += b; if v <= 0 { v = 0 }` — the VADDPS sum
// is the IEEE sum the scalar add produces, NaN sums pass through, and a -0
// sum becomes +0.
TEXT ·addScalarReluAsm(SB), NOSPLIT, $0-20
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	VBROADCASTSS b+16(FP), Y5
	VXORPS Y0, Y0, Y0

	MOVQ CX, BX
	ANDQ $-32, BX
	JEQ  artail8

arloop32:
	VMOVUPS (SI), Y1
	VADDPS  Y5, Y1, Y1
	VCMPPS  $6, Y0, Y1, Y2
	VANDPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)
	VMOVUPS 32(SI), Y3
	VADDPS  Y5, Y3, Y3
	VCMPPS  $6, Y0, Y3, Y4
	VANDPS  Y4, Y3, Y3
	VMOVUPS Y3, 32(SI)
	VMOVUPS 64(SI), Y1
	VADDPS  Y5, Y1, Y1
	VCMPPS  $6, Y0, Y1, Y2
	VANDPS  Y2, Y1, Y1
	VMOVUPS Y1, 64(SI)
	VMOVUPS 96(SI), Y3
	VADDPS  Y5, Y3, Y3
	VCMPPS  $6, Y0, Y3, Y4
	VANDPS  Y4, Y3, Y3
	VMOVUPS Y3, 96(SI)
	ADDQ    $128, SI
	SUBQ    $32, BX
	JNE     arloop32

artail8:
	ANDQ $24, CX
	JEQ  ardone

arloop8:
	VMOVUPS (SI), Y1
	VADDPS  Y5, Y1, Y1
	VCMPPS  $6, Y0, Y1, Y2
	VANDPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNE     arloop8

ardone:
	VZEROUPPER
	RET

// func packSignsAsm(nwords int, src *float32, dst *uint64)
//
// Per output word: 8 groups of 8 floats, each compared against zero with
// VCMPPS (LT_OS, matching Go's `v < 0` on -0 and NaN) and collapsed to 8
// mask bits with VMOVMSKPS.
TEXT ·packSignsAsm(SB), NOSPLIT, $0-24
	MOVQ nwords+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	VXORPS Y0, Y0, Y0

wloop:
	VMOVUPS (SI), Y1
	VCMPPS $1, Y0, Y1, Y1
	VMOVMSKPS Y1, AX
	VMOVUPS 32(SI), Y2
	VCMPPS $1, Y0, Y2, Y2
	VMOVMSKPS Y2, BX
	SHLQ $8, BX
	ORQ  BX, AX
	VMOVUPS 64(SI), Y3
	VCMPPS $1, Y0, Y3, Y3
	VMOVMSKPS Y3, BX
	SHLQ $16, BX
	ORQ  BX, AX
	VMOVUPS 96(SI), Y1
	VCMPPS $1, Y0, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ $24, BX
	ORQ  BX, AX
	VMOVUPS 128(SI), Y2
	VCMPPS $1, Y0, Y2, Y2
	VMOVMSKPS Y2, BX
	SHLQ $32, BX
	ORQ  BX, AX
	VMOVUPS 160(SI), Y3
	VCMPPS $1, Y0, Y3, Y3
	VMOVMSKPS Y3, BX
	SHLQ $40, BX
	ORQ  BX, AX
	VMOVUPS 192(SI), Y1
	VCMPPS $1, Y0, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ $48, BX
	ORQ  BX, AX
	VMOVUPS 224(SI), Y2
	VCMPPS $1, Y0, Y2, Y2
	VMOVMSKPS Y2, BX
	SHLQ $56, BX
	ORQ  BX, AX
	MOVQ AX, (DI)
	ADDQ $256, SI
	ADDQ $8, DI
	DECQ CX
	JNE  wloop
	VZEROUPPER
	RET
