package tensor

import (
	"math"
	"testing"
)

// TestMatMulAccTAsmMatchesGo runs the accumulating transposed-B product with
// the AVX2 micro-kernel and again with the portable dot kernel over the same
// shape lattice. The two differ only by fused vs separately rounded
// multiply-adds, the O(√K·ε) bound of TestMatMulMatchesNaive.
func TestMatMulAccTAsmMatchesGo(t *testing.T) {
	if !useGemmAsm {
		t.Skip("no AVX2 kernel on this machine")
	}
	defer func() { useGemmAsm = true }()
	for _, m := range accTDims.m {
		for _, n := range accTDims.n {
			for _, k := range accTDims.k {
				useGemmAsm = true
				asm, _ := accTCase(m, n, k)
				useGemmAsm = false
				pure, _ := accTCase(m, n, k)
				tol := 1e-6 * (4 + math.Sqrt(float64(k))*4)
				if d := maxRelDiff(pure, asm); d > tol {
					t.Errorf("shape %dx%dx%d: asm vs pure-Go rel diff %g > %g", m, n, k, d, tol)
				}
			}
		}
	}
}

// BenchmarkStripKernels times the strip micro-kernels themselves at both
// widths on L1-resident operands, one full K block a call: the register-tile
// ceiling the driver's products are measured against.
func BenchmarkStripKernels(b *testing.B) {
	if !useGemm512 {
		b.Skip("no usable AVX-512 state on this machine")
	}
	const kc, ns = gemmKC, 4
	a := randMat(1, 8, kc).Data
	bp := randMat(2, ns, kc*gemmNR).Data
	out := make([]float32, 8*ns*gemmNR)
	var offs [gemmKC]int32
	for p := range offs {
		offs[p] = int32(p * gemmNR)
	}
	const ldd = ns * gemmNR
	row := func(i int) *float32 { return &a[i*kc] }
	for _, k := range []struct {
		name string
		rows int
		run  func()
	}{
		{"4x16/ymm", 4, func() {
			for s := 0; s < ns; s++ {
				gemm4x16(kc, row(0), row(1), row(2), row(3), &bp[s*kc*gemmNR], &out[s*gemmNR], &out[ldd+s*gemmNR], &out[2*ldd+s*gemmNR], &out[3*ldd+s*gemmNR])
			}
		}},
		{"8x32/zmm", 8, func() {
			for s := 0; s < ns; s += 2 {
				gemm8x32(kc, row(0), kc, &bp[s*kc*gemmNR], &bp[(s+1)*kc*gemmNR], &out[s*gemmNR], ldd)
			}
		}},
		{"4x16o/ymm", 4, func() {
			for s := 0; s < ns; s++ {
				gemm4x16o(kc, row(0), row(1), row(2), row(3), &bp[s*gemmNR], &offs[0], &out[s*gemmNR], &out[ldd+s*gemmNR], &out[2*ldd+s*gemmNR], &out[3*ldd+s*gemmNR])
			}
		}},
		{"8x32o/zmm", 8, func() {
			for s := 0; s < ns; s += 2 {
				gemm8x32o(kc, row(0), kc, &bp[s*gemmNR], &bp[(s+1)*gemmNR], &offs[0], &out[s*gemmNR], ldd)
			}
		}},
		{"1x16s/ymm", 1, func() { gemm1x16s(kc, ns, row(0), &bp[0], &out[0]) }},
		{"1x64s/zmm", 1, func() { gemm1x64s(kc, ns/4, row(0), &bp[0], &out[0]) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(2*k.rows*ns*gemmNR*kc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// TestKernelDetection pins the two dispatch decisions as functions of the
// CPUID and XCR0 words alone, including the machines this box is not: a CPU
// with AVX-512 under an OS that saves only YMM state, one without leaf 7, an
// AVX2-only one, and one whose OS has not set OSXSAVE (XCR0 unread, zero).
func TestKernelDetection(t *testing.T) {
	const (
		ecx1All = cpuidFMA | cpuidOSXSAVE | cpuidAVX
		ebx7All = cpuidAVX2 | cpuidAVX512F
		xcr0All = xcr0YMM | xcr0ZMM | 1
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		avx2, avx512              bool
	}{
		{"avx-512 with OS state", 0x20, ecx1All, ebx7All, xcr0All, true, true},
		{"avx-512, OS saves YMM only", 0x20, ecx1All, ebx7All, xcr0YMM | 1, true, false},
		{"avx-512, OS lacks Hi16_ZMM", 0x20, ecx1All, ebx7All, xcr0All &^ 0x80, true, false},
		{"avx-512, OS lacks opmask", 0x20, ecx1All, ebx7All, xcr0All &^ 0x20, true, false},
		{"avx2 only", 0x16, ecx1All, cpuidAVX2, xcr0YMM | 1, true, false},
		{"avx2 only, ZMM bits set anyway", 0x16, ecx1All, cpuidAVX2, xcr0All, true, false},
		{"no leaf 7", 6, ecx1All, ebx7All, xcr0All, false, false},
		{"no OSXSAVE", 0x20, ecx1All &^ cpuidOSXSAVE, ebx7All, 0, false, false},
		{"no FMA", 0x20, ecx1All &^ cpuidFMA, ebx7All, xcr0All, false, false},
		{"OS saves no YMM state", 0x20, ecx1All, ebx7All, 0x3, false, false},
		{"avx-512 without avx2", 0x20, ecx1All, cpuidAVX512F, xcr0All, false, false},
	} {
		avx2 := hasAVX2FMA(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0)
		if avx2 != c.avx2 {
			t.Errorf("%s: hasAVX2FMA = %v, want %v", c.name, avx2, c.avx2)
		}
		// The 512-bit kernels fall back on the 256-bit ones, so they are
		// live only where both checks pass, as detectKernels combines them.
		if got := avx2 && has512(c.maxLeaf, c.ebx7, c.xcr0); got != c.avx512 {
			t.Errorf("%s: 512-bit kernels live = %v, want %v", c.name, got, c.avx512)
		}
	}
	// KernelISA names whatever is live.
	for _, c := range []struct {
		asm, wide bool
		want      string
	}{{true, true, "avx512f"}, {true, false, "avx2+fma"}, {false, false, "portable"}} {
		runWithGemm512(c.wide, func() {
			runWithAsm(c.asm, func() {
				if got := KernelISA(); got != c.want {
					t.Errorf("asm=%v 512=%v: KernelISA() = %q, want %q", c.asm, c.wide, got, c.want)
				}
			})
		})
	}
	t.Logf("this machine: %s", KernelISA())
}
