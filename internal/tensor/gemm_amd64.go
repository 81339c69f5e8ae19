package tensor

// useGemmAsm gates the AVX2+FMA assembly micro-kernels in gemm_amd64.s.
// Detected once at startup; requires FMA, AVX2, and OS-managed YMM state
// (OSXSAVE set and XCR0 reporting XMM+YMM enabled), so it is safe under
// virtualization and on pre-AVX hardware, where the pure-Go kernel runs
// instead.
var useGemmAsm = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, c1, _ := cpuidex(1, 0)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set by the OS.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	const avx2Bit = 1 << 5
	_, b7, _, _ := cpuidex(7, 0)
	return b7&avx2Bit != 0
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable register.
func xgetbv0() (eax, edx uint32)

// gemm4x16 accumulates a 4×16 output tile over kc steps of K:
// o[r][0:16] += Σ_p a_r[p] * bp[16p:16p+16], with bp a packed p-major strip.
// kc must be ≥ 1; each o_r must have at least 16 addressable elements.
//
//go:noescape
func gemm4x16(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32)

// gemm1x16s accumulates one output row across ns consecutive 16-wide packed
// strips: o[16s+j] += Σ_p a[p] * bp[s·16·kc + 16p + j]. The per-element
// accumulation order (single accumulator, p ascending, fused multiply-add)
// matches gemm4x16 exactly, so leftover rows of a blocked GEMM computed with
// this kernel are bit-identical to rows inside a full 4-row group. kc and ns
// must be ≥ 1; o must have ns·16 addressable elements.
//
//go:noescape
func gemm1x16s(kc, ns int, a, bp, o *float32)

// gemm4x16o is gemm4x16 reading B through an offset table: K step p takes its
// 16 values from xb[offs[p]:] instead of a packed strip. Same accumulators and
// FMA order, so the same bits on the same values. kc must be ≥ 1 and every
// xb[offs[p]+15] addressable.
//
//go:noescape
func gemm4x16o(kc int, a0, a1, a2, a3, xb *float32, offs *int32, o0, o1, o2, o3 *float32)

// gemm1x16so is gemm1x16s reading B through an offset table: strip s takes K
// step p from xb[16s+offs[p]:], i.e. the ns strips are consecutive in one
// image row. kc and ns must be ≥ 1.
//
//go:noescape
func gemm1x16so(kc, ns int, a, xb *float32, offs *int32, o *float32)

// dot8 returns the inner product of x[0:n] and y[0:n]; n must be a positive
// multiple of 8.
//
//go:noescape
func dot8(n int, x, y *float32) float32

// reluAsm clamps x[0:n] to max(v, 0) in place with mask semantics identical
// to Go's `if v <= 0 { v = 0 }` (NaN passes through, -0 becomes +0). n must
// be a positive multiple of 8.
//
//go:noescape
func reluAsm(n int, p *float32)

// addScalarReluAsm sets p[i] = max(p[i]+b, 0) in place for i in [0, n): the
// conv bias add and the ReLU clamp fused into one sweep, bit-identical to
// the scalar `v += b; if v <= 0 { v = 0 }`. n must be a positive multiple
// of 8.
//
//go:noescape
func addScalarReluAsm(n int, p *float32, b float32)

// packSignsAsm writes nwords uint64 sign masks: bit i of word w is set iff
// src[64w+i] < 0 (VCMPPS with the LT predicate, so -0/NaN pack as 0 exactly
// like the Go comparison). nwords must be ≥ 1.
//
//go:noescape
func packSignsAsm(nwords int, src *float32, dst *uint64)
