//go:build !amd64

package tensor

// Non-amd64 builds always use the portable broadcast-AXPY kernel.
const (
	useGemmAsm = false
	useGemm512 = false
)

func gemm4x16(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32, zero bool) {
	panic("tensor: gemm4x16 requires amd64")
}

func gemm1x16s(kc, ns int, a, bp, o *float32, zero bool) {
	panic("tensor: gemm1x16s requires amd64")
}

func gemm4x16o(kc int, a0, a1, a2, a3, xb *float32, offs *int32, o0, o1, o2, o3 *float32, zero bool) {
	panic("tensor: gemm4x16o requires amd64")
}

func gemm1x16so(kc, ns int, a, xb *float32, offs *int32, o *float32, zero bool) {
	panic("tensor: gemm1x16so requires amd64")
}

func gemm8x32(kc int, a *float32, lda int, bp0, bp1, o *float32, ldd int, zero bool) {
	panic("tensor: gemm8x32 requires amd64")
}

func gemm8x32o(kc int, a *float32, lda int, xb0, xb1 *float32, offs *int32, o *float32, ldd int, zero bool) {
	panic("tensor: gemm8x32o requires amd64")
}

func gemm8x32a(kc int, x *float32, rowOff, kOff *int32, bp0, bp1, o *float32, ldd int, zero bool) {
	panic("tensor: gemm8x32a requires amd64")
}

func gemm8x16a(kc int, x *float32, rowOff, kOff *int32, bp, o *float32, ldd int, zero bool) {
	panic("tensor: gemm8x16a requires amd64")
}

func gemm4x16a(kc int, x *float32, rowOff, kOff *int32, bp, o *float32, ldd int, zero bool) {
	panic("tensor: gemm4x16a requires amd64")
}

func gemm1x64s(kc, nq int, a, bp, o *float32, zero bool) {
	panic("tensor: gemm1x64s requires amd64")
}

func gemm1x64so(kc, nq int, a, xb *float32, offs *int32, o *float32, zero bool) {
	panic("tensor: gemm1x64so requires amd64")
}

func gemm1x256w(kc int, a *float32, w *uint64, ldw int, o *float32, zero bool) {
	panic("tensor: gemm1x256w requires amd64")
}

func gemm1x64w(kc int, a *float32, w *uint64, ldw int, o *float32, zero bool) {
	panic("tensor: gemm1x64w requires amd64")
}

func gemm4xw(kc, w int, a *float32, lda int, b *float32, ldb int, o *float32, ldd int) {
	panic("tensor: gemm4xw requires amd64")
}

func dot8(n int, x, y *float32) float32 {
	panic("tensor: dot8 requires amd64")
}

func dot4x3(k int, a *float32, lda int, b *float32, ldb int, o *float32, ldo int) {
	panic("tensor: dot4x3 requires amd64")
}

func dot1x12(k int, a *float32, lda int, b *float32, ldb int, o *float32, ldo int) {
	panic("tensor: dot1x12 requires amd64")
}

func reluAsm(n int, dst, src *float32) {
	panic("tensor: reluAsm requires amd64")
}

func addScalarReluAsm(n int, p *float32, b float32) {
	panic("tensor: addScalarReluAsm requires amd64")
}

func packSignsAsm(nwords int, src *float32, dst *uint64) {
	panic("tensor: packSignsAsm requires amd64")
}

func expandSignsAsm(rows int, w *uint64, ldw int, shift uint, dst *float32, ldd int) {
	panic("tensor: expandSignsAsm requires amd64")
}

func expandSigns512Asm(rows int, w *uint64, ldw int, shift uint, dst *float32, ldd int) {
	panic("tensor: expandSigns512Asm requires amd64")
}
