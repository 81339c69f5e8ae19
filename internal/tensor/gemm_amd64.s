#include "textflag.h"

// ADDZERO8(z) adds the zeroed register z to the eight accumulators Y0–Y7:
// +0 + acc, the sum a cleared output would have given them.
#define ADDZERO8(z) \
	VADDPS z, Y0, Y0; \
	VADDPS z, Y1, Y1; \
	VADDPS z, Y2, Y2; \
	VADDPS z, Y3, Y3; \
	VADDPS z, Y4, Y4; \
	VADDPS z, Y5, Y5; \
	VADDPS z, Y6, Y6; \
	VADDPS z, Y7, Y7

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

// func gemm4x16(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32, zero bool)
//
// 4x16 register-tiled micro-kernel: 8 YMM accumulators hold the output tile
// across the whole K loop, so the only memory traffic per K step is one
// 64-byte packed-B read plus four 4-byte A broadcasts, and each step retires
// 8 fused multiply-adds (64 flops). Accumulators are added into the output
// rows once at the end — to +0 from a zeroed register instead of to the
// loaded output when zero is set, the value a cleared output would hold.
TEXT ·gemm4x16(SB), NOSPLIT, $0-81
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

	CMPB zero+80(FP), $0
	JNE  zstart
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	VADDPS (DX), Y2, Y2
	VADDPS 32(DX), Y3, Y3
	VADDPS (R12), Y4, Y4
	VADDPS 32(R12), Y5, Y5
	VADDPS (R13), Y6, Y6
	VADDPS 32(R13), Y7, Y7
	JMP  store

zstart:
	VXORPS Y8, Y8, Y8
	ADDZERO8(Y8)

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func gemm1x16s(kc, ns int, a, bp, o *float32, zero bool)
//
// Skinny-M micro-kernel: one output row across ns consecutive 16-wide packed
// strips. Each strip holds a 2-YMM accumulator pair across its whole K loop
// (one broadcast + two fused multiply-adds per K step), added into the output
// once at the end (to +0 when zero is set) — the same single-accumulator,
// p-ascending order gemm4x16 gives each of its rows, so a leftover row
// computes bit-identically to the rows of a full 4-row group. Strips are
// contiguous (strip s starts at bp + s·kc·16), so SI streams straight through
// the panel.
TEXT ·gemm1x16s(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), BX
	MOVQ ns+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ bp+24(FP), SI
	MOVQ o+32(FP), DI
	MOVBLZX zero+40(FP), R10
	VXORPS Y5, Y5, Y5

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

	TESTQ R10, R10
	JNE  zstart
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	JMP  store

zstart:
	VADDPS Y5, Y0, Y0
	VADDPS Y5, Y1, Y1

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	DECQ DX
	JNE  sloop
	VZEROUPPER
	RET

// func gemm4x16o(kc int, a0, a1, a2, a3, xb *float32, offs *int32, o0, o1, o2, o3 *float32, zero bool)
//
// gemm4x16 with the packed strip replaced by an offset table: K step p reads
// its 16 B values at xb + 4·offs[p] instead of bp + 64·p, so a convolution
// hands the kernel addresses into its zero-padded image window and never
// packs a strip. Accumulators, FMA order and the add-into-output (or into +0)
// epilogue are gemm4x16's, so both give every lane the same bits on the same
// values. One negative index counts K up to zero and addresses A and offs
// from their ends, which leaves the loop 17 uops a step against gemm4x16's
// 20.
TEXT ·gemm4x16o(SB), NOSPLIT, $0-89
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

	CMPB zero+88(FP), $0
	JNE  zstart
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	VADDPS (DX), Y2, Y2
	VADDPS 32(DX), Y3, Y3
	VADDPS (R12), Y4, Y4
	VADDPS 32(R12), Y5, Y5
	VADDPS (R13), Y6, Y6
	VADDPS 32(R13), Y7, Y7
	JMP  store

zstart:
	VXORPS Y8, Y8, Y8
	ADDZERO8(Y8)

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func gemm1x16so(kc, ns int, a, xb *float32, offs *int32, o *float32, zero bool)
//
// gemm1x16s over an offset table: one output row across ns consecutive
// 16-column strips of one image row, strip s reading K step p at
// xb + 64·s + 4·offs[p]. Per element the chain is gemm4x16o's, as gemm1x16s's
// is gemm4x16's.
TEXT ·gemm1x16so(SB), NOSPLIT, $0-49
	MOVQ kc+0(FP), BX
	MOVQ ns+8(FP), DX
	MOVQ a+16(FP), R9
	MOVQ xb+24(FP), SI
	MOVQ offs+32(FP), R10
	MOVQ o+40(FP), DI
	MOVBLZX zero+48(FP), R11
	VXORPS Y5, Y5, Y5
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

	TESTQ R11, R11
	JNE  zstart
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	JMP  store

zstart:
	VADDPS Y5, Y0, Y0
	VADDPS Y5, Y1, Y1

store:
	VMOVUPS Y0, (DI)
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

// func expandSignsAsm(rows int, w *uint64, ldw int, shift uint, dst *float32, ldd int)
//
// expandSigns512Asm on 256-bit registers: the row's bits, broadcast and
// shifted left by 31 − j in lane j (counts widened from byte immediates), put
// bit j in the sign position, which is masked and or-ed into +1.0.
TEXT ·expandSignsAsm(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R8
	MOVQ w+8(FP), SI
	MOVQ ldw+16(FP), R9
	MOVQ shift+24(FP), CX
	MOVQ dst+32(FP), DI
	MOVQ ldd+40(FP), R10
	MOVQ $0x18191a1b1c1d1e1f, AX
	VMOVQ AX, X0
	VPMOVZXBD X0, Y0
	MOVQ $0x1011121314151617, AX
	VMOVQ AX, X1
	VPMOVZXBD X1, Y1
	VPCMPEQD Y2, Y2, Y2
	VPSRLD $25, Y2, Y3
	VPSLLD $23, Y3, Y3
	VPSLLD $31, Y2, Y2

expand:
	MOVQ         (SI), AX
	SHRQ         CX, AX
	VMOVQ        AX, X4
	VPBROADCASTD X4, Y4
	VPSLLVD      Y0, Y4, Y5
	VPSLLVD      Y1, Y4, Y6
	VPAND        Y2, Y5, Y5
	VPAND        Y2, Y6, Y6
	VPOR         Y3, Y5, Y5
	VPOR         Y3, Y6, Y6
	VMOVDQU      Y5, (DI)
	VMOVDQU      Y6, 32(DI)
	LEAQ         (SI)(R9*8), SI
	LEAQ         (DI)(R10*4), DI
	DECQ         R8
	JNE          expand
	VZEROUPPER
	RET

// ROWACC(areg, b, p, acc) is one row's step of gemm4xw: p = b·a with b, the B
// element, as first source, then acc = p + acc with the product first — the
// operand order gemmGoPart compiles to (MULSS a, b; ADDSS o, b), so a lane
// whose operands are both NaN returns the same payload as the twin.
#define ROWACC(areg, b, p, acc) \
	VMULPS areg, b, p; \
	VADDPS acc, p, acc

// func gemm4xw(kc, w int, a *float32, lda int, b *float32, ldb int, o *float32, ldd int)
//
// The ragged-column kernel: o[r·ldd + j] += Σ_p a[r·lda + p]·b[p·ldb + j] for
// four rows r and the 1 ≤ w ≤ 15 columns j left of a 16-column strip, kc ≥ 1
// steps of K. The output is loaded into registers once, each K step does one
// rounded multiply and one rounded add per element in gemmGoPart's operand
// order (never an FMA), and the sums are stored once: a register holds what
// the twin writes back to memory after every step, so the bits are the
// twin's, NaN payloads included. Lanes at or past w are masked on every load
// and store; masked loads never fault, so a short last row is safe to read.
// w ≤ 8 runs one YMM per row, wider w two.
TEXT ·gemm4xw(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ w+8(FP), AX
	MOVQ a+16(FP), R8
	MOVQ lda+24(FP), R12
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), BX
	MOVQ o+48(FP), DI
	MOVQ ldd+56(FP), DX
	SHLQ $2, R12
	SHLQ $2, BX
	SHLQ $2, DX
	LEAQ (R8)(R12*1), R9  // A row 1; rows 2 and 3 are R8 and R9 plus 2·lda
	LEAQ (DI)(DX*1), R13  // output row 1; rows 2 and 3 likewise

	// Lane masks: lane j of Y8 (Y9) is all ones iff j < w (j + 8 < w).
	VMOVQ        AX, X15
	VPBROADCASTD X15, Y15
	MOVQ         $0x0706050403020100, R10
	VMOVQ        R10, X14
	VPMOVZXBD    X14, Y14
	VPCMPGTD     Y14, Y15, Y8
	CMPQ         AX, $8
	JGT          wide

	VMASKMOVPS (DI), Y8, Y0
	VMASKMOVPS (R13), Y8, Y1
	VMASKMOVPS (DI)(DX*2), Y8, Y2
	VMASKMOVPS (R13)(DX*2), Y8, Y3

narrow:
	VMASKMOVPS   (SI), Y8, Y10
	VBROADCASTSS (R8), Y12
	ROWACC(Y12, Y10, Y13, Y0)
	VBROADCASTSS (R9), Y12
	ROWACC(Y12, Y10, Y13, Y1)
	VBROADCASTSS (R8)(R12*2), Y12
	ROWACC(Y12, Y10, Y13, Y2)
	VBROADCASTSS (R9)(R12*2), Y12
	ROWACC(Y12, Y10, Y13, Y3)
	ADDQ         BX, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	DECQ         CX
	JNE          narrow

	VMASKMOVPS Y0, Y8, (DI)
	VMASKMOVPS Y1, Y8, (R13)
	VMASKMOVPS Y2, Y8, (DI)(DX*2)
	VMASKMOVPS Y3, Y8, (R13)(DX*2)
	VZEROUPPER
	RET

wide:
	MOVQ      $0x0f0e0d0c0b0a0908, R10
	VMOVQ     R10, X14
	VPMOVZXBD X14, Y14
	VPCMPGTD  Y14, Y15, Y9

	VMOVUPS    (DI), Y0
	VMASKMOVPS 32(DI), Y9, Y1
	VMOVUPS    (R13), Y2
	VMASKMOVPS 32(R13), Y9, Y3
	VMOVUPS    (DI)(DX*2), Y4
	VMASKMOVPS 32(DI)(DX*2), Y9, Y5
	VMOVUPS    (R13)(DX*2), Y6
	VMASKMOVPS 32(R13)(DX*2), Y9, Y7

wloop:
	VMOVUPS      (SI), Y10
	VMASKMOVPS   32(SI), Y9, Y11
	VBROADCASTSS (R8), Y12
	ROWACC(Y12, Y10, Y13, Y0)
	ROWACC(Y12, Y11, Y14, Y1)
	VBROADCASTSS (R9), Y12
	ROWACC(Y12, Y10, Y13, Y2)
	ROWACC(Y12, Y11, Y14, Y3)
	VBROADCASTSS (R8)(R12*2), Y12
	ROWACC(Y12, Y10, Y13, Y4)
	ROWACC(Y12, Y11, Y14, Y5)
	VBROADCASTSS (R9)(R12*2), Y12
	ROWACC(Y12, Y10, Y13, Y6)
	ROWACC(Y12, Y11, Y14, Y7)
	ADDQ         BX, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	DECQ         CX
	JNE          wloop

	VMOVUPS    Y0, (DI)
	VMASKMOVPS Y1, Y9, 32(DI)
	VMOVUPS    Y2, (R13)
	VMASKMOVPS Y3, Y9, 32(R13)
	VMOVUPS    Y4, (DI)(DX*2)
	VMASKMOVPS Y5, Y9, 32(DI)(DX*2)
	VMOVUPS    Y6, (R13)(DX*2)
	VMASKMOVPS Y7, Y9, 32(R13)(DX*2)
	VZEROUPPER
	RET
