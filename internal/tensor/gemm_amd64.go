package tensor

// useGemmAsm gates the AVX2+FMA assembly micro-kernels in gemm_amd64.s and
// useGemm512 their 512-bit twins in gemm512_amd64.s, which gemmStripPart
// prefers where it has eight rows and two strips (or one row and four strips)
// to hand them. usePopcntAsm gates the AVX2 VPSHUFB-LUT popcount kernel
// (popcnt_amd64.s), which is integer-only and so needs no FMA.
// Detected once at startup from CPUID and XCR0, so all three are safe under
// virtualization and on older hardware, where the pure-Go kernel runs instead;
// only tests write the first two (runWithAsm, runWithGemm512).
var useGemmAsm, useGemm512, usePopcntAsm = detectKernels()

// detectKernels reads CPUID leaves 1 and 7 and XCR0 once and decides every
// kernel gate from them.
func detectKernels() (gemm, gemm512, popcnt bool) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf >= 1 {
		_, _, ecx1, _ = cpuidex(1, 0)
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuidex(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 { // XGETBV faults without it
		xcr0, _ = xgetbv0()
	}
	gemm = hasAVX2FMA(maxLeaf, ecx1, ebx7, xcr0)
	return gemm, gemm && has512(maxLeaf, ebx7, xcr0), hasAVX2(maxLeaf, ecx1, ebx7, xcr0)
}

const (
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	cpuidAVX2    = 1 << 5 // leaf 7 EBX
	cpuidAVX512F = 1 << 16

	xcr0YMM = 0x06 // SSE and AVX state: XMM and the upper halves of YMM
	xcr0ZMM = 0xe0 // opmask, ZMM_Hi256, Hi16_ZMM
)

// hasAVX2 reports whether 256-bit integer kernels may run: the CPU lists AVX
// and AVX2 (leaf 1 ECX, leaf 7 EBX) and the OS saves YMM state (OSXSAVE, XCR0
// bits 1–2). xcr0 is zero where XGETBV could not be executed.
func hasAVX2(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	const need1 = cpuidOSXSAVE | cpuidAVX
	return maxLeaf >= 7 && ecx1&need1 == need1 && ebx7&cpuidAVX2 != 0 && xcr0&xcr0YMM == xcr0YMM
}

// hasAVX2FMA reports whether the 256-bit float kernels may run: hasAVX2 and
// FMA (leaf 1 ECX).
func hasAVX2FMA(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	return ecx1&cpuidFMA != 0 && hasAVX2(maxLeaf, ecx1, ebx7, xcr0)
}

// has512 reports whether the 512-bit kernels may run on top of the 256-bit
// ones: AVX512F in leaf 7 and the OS saving opmask and both ZMM state
// components besides YMM. A CPU that has the instructions under an OS that
// has not enabled the state faults on the first ZMM access.
func has512(maxLeaf, ebx7, xcr0 uint32) bool {
	const need = xcr0YMM | xcr0ZMM
	return maxLeaf >= 7 && ebx7&cpuidAVX512F != 0 && xcr0&need == need
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable register.
func xgetbv0() (eax, edx uint32)

// gemm4x16 accumulates a 4×16 output tile over kc steps of K:
// o[r][0:16] += Σ_p a_r[p] * bp[16p:16p+16], with bp a packed p-major strip.
// kc must be ≥ 1; each o_r must have at least 16 addressable elements.
//
// Every strip kernel below sums each lane from +0 in a register and adds the
// sum into the output once. With zero set the output is not loaded: the sum
// is added to +0 instead, which gives exactly the bits a cleared output would
// have (a −0 sum becomes +0 either way), so an overwriting product's first K
// block needs no clear pass.
//
//go:noescape
func gemm4x16(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32, zero bool)

// gemm1x16s accumulates one output row across ns consecutive 16-wide packed
// strips: o[16s+j] += Σ_p a[p] * bp[s·16·kc + 16p + j]. The per-element
// accumulation order (single accumulator, p ascending, fused multiply-add)
// matches gemm4x16 exactly, so leftover rows of a blocked GEMM computed with
// this kernel are bit-identical to rows inside a full 4-row group. kc and ns
// must be ≥ 1; o must have ns·16 addressable elements.
//
//go:noescape
func gemm1x16s(kc, ns int, a, bp, o *float32, zero bool)

// gemm4x16o is gemm4x16 reading B through an offset table: K step p takes its
// 16 values from xb[offs[p]:] instead of a packed strip. Same accumulators and
// FMA order, so the same bits on the same values. kc must be ≥ 1 and every
// xb[offs[p]+15] addressable.
//
//go:noescape
func gemm4x16o(kc int, a0, a1, a2, a3, xb *float32, offs *int32, o0, o1, o2, o3 *float32, zero bool)

// gemm1x16so is gemm1x16s reading B through an offset table: strip s takes K
// step p from xb[16s+offs[p]:], i.e. the ns strips are consecutive in one
// image row. kc and ns must be ≥ 1.
//
//go:noescape
func gemm1x16so(kc, ns int, a, xb *float32, offs *int32, o *float32, zero bool)

// gemm8x32 accumulates an 8×32 output tile over kc steps of K from two
// packed strips bp0 and bp1 whose output columns are adjacent:
// o[r·ldd:][0:32] += Σ_p a[r·lda+p] * (bp0[16p:16p+16] ‖ bp1[16p:16p+16])
// for r < 8. One accumulator per element, p ascending, fused multiply-add:
// the bits of four gemm4x16 calls. kc must be ≥ 1.
//
//go:noescape
func gemm8x32(kc int, a *float32, lda int, bp0, bp1, o *float32, ldd int, zero bool)

// gemm8x32o is gemm8x32 reading B through an offset table, as gemm4x16o does,
// from two window bases xb0 and xb1 that share it: the bits of four gemm4x16o
// calls.
//
//go:noescape
func gemm8x32o(kc int, a *float32, lda int, xb0, xb1 *float32, offs *int32, o *float32, ldd int, zero bool)

// gemm8x32a is gemm8x32 with A read in place: element (r, p) of the tile at
// x[rowOff[r] + kOff[p]] for r < 8 — a conv's padded window with output
// positions or taps as rows, or a matrix read transposed — against the packed
// strips bp0 and bp1. Same accumulators, FMA order and zero flag: the bits of
// gemm8x32 on the same values. kc ≥ 1, and every x element the tables name
// must be addressable.
//
//go:noescape
func gemm8x32a(kc int, x *float32, rowOff, kOff *int32, bp0, bp1, o *float32, ldd int, zero bool)

// gemm8x16a is gemm8x32a over one packed strip: the bits of two gemm4x16a
// calls.
//
//go:noescape
func gemm8x16a(kc int, x *float32, rowOff, kOff *int32, bp, o *float32, ldd int, zero bool)

// gemm4x16a is the 256-bit A-offset kernel, gemm4x16 with A read as
// gemm8x32a reads it and output row r at o[r·ldd:]. It loads every output row
// before it stores one, so ldd = 0 and one row offset repeated four times
// compute a single row.
//
//go:noescape
func gemm4x16a(kc int, x *float32, rowOff, kOff *int32, bp, o *float32, ldd int, zero bool)

// gemm1x64s is gemm1x16s over 4·nq packed strips, four in flight: the bits of
// gemm1x16s(kc, 4·nq, a, bp, o, zero). kc and nq must be ≥ 1.
//
//go:noescape
func gemm1x64s(kc, nq int, a, bp, o *float32, zero bool)

// gemm1x64so is gemm1x16so over 4·nq strips of one image row, four in flight:
// the bits of gemm1x16so(kc, 4·nq, a, xb, offs, o, zero). kc and nq must be
// ≥ 1.
//
//go:noescape
func gemm1x64so(kc, nq int, a, xb *float32, offs *int32, o *float32, zero bool)

// gemm1x256w is one row against 16 consecutive strips of sign words read in
// place, w the first of the four words that hold row p's 256 columns at
// w + p·ldw: the bits of gemm1x64s(kc, 4, a, bp, o, zero) over the strips
// expandSigns would write, with nothing expanded (gemm_panels.go,
// signRows). kc must be ≥ 1.
//
//go:noescape
func gemm1x256w(kc int, a *float32, w *uint64, ldw int, o *float32, zero bool)

// gemm1x64w is gemm1x256w on 256-bit registers, over the 64 columns of one
// word a K step: the bits of gemm1x16s(kc, 4, a, bp, o, zero) on the strips
// expandSigns would write. kc must be ≥ 1.
//
//go:noescape
func gemm1x64w(kc int, a *float32, w *uint64, ldw int, o *float32, zero bool)

// gemm4xw is gemmGoPart's four-row loop on vector registers, for the ragged
// columns left of a 16-column strip: o[r·ldd + j] += Σ_p a[r·lda + p]·
// b[p·ldb + j] for r < 4, j < w, p < kc, with 1 ≤ w < 16 and kc ≥ 1. Each
// element keeps the twin's chain — p ascending, a rounded product b·a, then
// product + o, never fused — so the bits are gemmGoPart's, NaN payloads
// included (TestGemmRaggedMatchesTwin). Strides are in floats.
//
//go:noescape
func gemm4xw(kc, w int, a *float32, lda int, b *float32, ldb int, o *float32, ldd int)

// dot8 returns the inner product of x[0:n] and y[0:n]; n must be a positive
// multiple of 8.
//
//go:noescape
func dot8(n int, x, y *float32) float32

// dot4x3 and dot1x12 (gemm512_amd64.s, behind useGemm512) write
// o[i·ldo + j] = dot8(k, a + i·lda, b + j·ldb) for the mr × nr tile their
// name gives, bit for bit; k must be a positive multiple of 8, and lda, ldb
// and ldo are in floats.
//
//go:noescape
func dot4x3(k int, a *float32, lda int, b *float32, ldb int, o *float32, ldo int)

//go:noescape
func dot1x12(k int, a *float32, lda int, b *float32, ldb int, o *float32, ldo int)

// reluAsm writes dst[i] = max(src[i], 0) for i < n with mask semantics
// identical to Go's `if v <= 0 { v = 0 }` (NaN passes through, -0 becomes
// +0); dst == src clamps in place. n must be a positive multiple of 8.
//
//go:noescape
func reluAsm(n int, dst, src *float32)

// addScalarReluAsm sets p[i] = max(p[i]+b, 0) in place for i in [0, n): the
// conv bias add and the ReLU clamp fused into one sweep, bit-identical to
// the scalar `v += b; if v <= 0 { v = 0 }`. n must be a positive multiple
// of 8.
//
//go:noescape
func addScalarReluAsm(n int, p *float32, b float32)

// expandSignsAsm and expandSigns512Asm (gemm512_amd64.s, behind useGemm512)
// write rows strip rows of exactly ±1.0: row r, at dst + r·ldd floats, is
// bits [shift, shift+16) of the word at w + r·ldw, −1.0 where a bit is set.
// rows must be ≥ 1.
//
//go:noescape
func expandSignsAsm(rows int, w *uint64, ldw int, shift uint, dst *float32, ldd int)

//go:noescape
func expandSigns512Asm(rows int, w *uint64, ldw int, shift uint, dst *float32, ldd int)

// packSignsAsm writes nwords uint64 sign masks: bit i of word w is set iff
// src[64w+i] < 0 (VCMPPS with the LT predicate, so -0/NaN pack as 0 exactly
// like the Go comparison). nwords must be ≥ 1.
//
//go:noescape
func packSignsAsm(nwords int, src *float32, dst *uint64)
