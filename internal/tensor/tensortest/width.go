// Package tensortest lets the tests and benchmarks of packages built on
// internal/tensor choose the GEMM kernel width, which tensor itself offers no
// way to do: no option, flag or environment variable selects a kernel.
package tensortest

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// useGemm512 is tensor's unexported switch of the same name, which its own
// tests flip through runWithGemm512. On targets without the 512-bit kernels
// it is a variable nothing reads.
//
//go:linkname useGemm512 nshd/internal/tensor.useGemm512
var useGemm512 bool

// useGemmAsm is tensor's switch for every vector kernel, as useGemm512 is
// for the 512-bit ones.
//
//go:linkname useGemmAsm nshd/internal/tensor.useGemmAsm
var useGemmAsm bool

// Portable turns every vector kernel off until tb ends, so a test runs the Go
// twins the portable build serves with. Anything that sizes scratch from the
// kernels (an engine's arenas, a conv's window) must be built after the call.
func Portable(tb testing.TB) {
	tb.Helper()
	asm, wide := useGemmAsm, useGemm512
	tb.Cleanup(func() { useGemmAsm, useGemm512 = asm, wide })
	useGemmAsm, useGemm512 = false, false
}

// Gemm512 forces the 512-bit GEMM kernels on or off until the test, subtest
// or benchmark tb ends, and skips it when they are asked for on a machine
// without usable AVX-512 state. The width moves no bit
// (tensor.TestGemm512Matches256), so a gate run at both widths checks the
// dispatch, and a benchmark run at both prints the ratio from one process.
func Gemm512(tb testing.TB, on bool) {
	tb.Helper()
	if on && !useGemm512 {
		tb.Skip("no usable AVX-512 state on this machine")
	}
	prev := useGemm512
	tb.Cleanup(func() { useGemm512 = prev })
	useGemm512 = on
}

// At256 turns the 512-bit kernels off for the rest of tb, for a test that runs
// a package's gates a second time on the 256-bit kernels; where the 512-bit
// kernels are not live that is what every other test already ran, and tb is
// skipped.
func At256(tb testing.TB) {
	tb.Helper()
	if !useGemm512 {
		tb.Skip("the 512-bit kernels are not live: every other test here ran at 256 bits")
	}
	Gemm512(tb, false)
}

// BenchWidths runs body as the sub-benchmarks name/avx512 and name/avx2, the
// second with the 512-bit kernels off, so one process prints both rows of a
// GEMM-bound benchmark; on a machine without the 512-bit kernels the first
// is skipped.
func BenchWidths(b *testing.B, name string, body func(b *testing.B)) {
	for _, w := range []struct {
		name string
		on   bool
	}{{"avx512", true}, {"avx2", false}} {
		b.Run(name+"/"+w.name, func(b *testing.B) {
			Gemm512(b, w.on)
			body(b)
		})
	}
}
