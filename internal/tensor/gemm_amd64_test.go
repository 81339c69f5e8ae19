package tensor

import (
	"fmt"
	"math"
	"math/rand"
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

// fma32 is a float32 fused multiply-add, x·y + z rounded once: the product is
// exact in float64, and the sum is rounded to float64 by round-to-odd (the
// nearest sum, moved one ulp towards the exact one where it is even and
// inexact) so that the final rounding to float32 is the single correct one.
func fma32(x, y, z float32) float32 {
	p, zz := float64(x)*float64(y), float64(z)
	s := p + zz
	bb := s - p
	if err := (p - (s - bb)) + (zz - bb); err != 0 && math.Float64bits(s)&1 == 0 {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), err))
	}
	return float32(s)
}

// dotLaneModel is dotAsm's chain spelled out in Go: dot8 keeps 4 YMM × 8
// lanes of FMA partials over the 32-float blocks, runs the remaining 8-float
// blocks into the first YMM, reduces lane-wise (Y0+Y1) + (Y2+Y3), then the
// halves (lanes l and l+4), then two horizontal pair adds; the K mod 8 tail
// is added to that sum one rounded product at a time.
func dotLaneModel(x, y []float32) float32 {
	var acc [4][8]float32
	k, wide := len(x), len(x)/8*8
	p := 0
	for ; p+32 <= wide; p += 32 {
		for r := range acc {
			for l := range acc[r] {
				acc[r][l] = fma32(x[p+8*r+l], y[p+8*r+l], acc[r][l])
			}
		}
	}
	for ; p < wide; p += 8 {
		for l := range acc[0] {
			acc[0][l] = fma32(x[p+l], y[p+l], acc[0][l])
		}
	}
	var s float32
	if wide > 0 {
		var v [8]float32
		for l := range v {
			v[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l])
		}
		h := [4]float32{v[0] + v[4], v[1] + v[5], v[2] + v[6], v[3] + v[7]}
		s = (h[0] + h[1]) + (h[2] + h[3])
	}
	for ; p < k; p++ {
		s += float32(x[p] * y[p])
	}
	return s
}

// TestDotFastLaneOrder pins dot8's chain: DotFast and every row of MatMulT
// (the similarity scorer's kernel) equal dotLaneModel bit for bit, on K
// around the 8- and 32-float steps (63 and 1055 run loop8 after loop32, into
// partials that are not zero) and at the manifold and tail widths. It is
// why a GEMM-driver product — one FMA chain per element — cannot stand in for
// them bit-identically (ROADMAP item 5c).
func TestDotFastLaneOrder(t *testing.T) {
	if !useGemmAsm {
		t.Skip("no AVX2 kernel on this machine")
	}
	for _, k := range []int{0, 1, 7, 8, 31, 32, 33, 63, 100, 1024, 1031, 1055, 9216} {
		a, b := randMat(int64(k), 3, k), randMat(int64(k)+1, 5, k)
		for i, v := range a.Data { // magnitudes over six decades, so the order shows in the bits
			a.Data[i] = v * float32(math.Pow(10, float64(i%7)-3))
		}
		got := MatMulT(a, b)
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				ai, bj := a.Data[i*k:][:k], b.Data[j*k:][:k]
				want := dotLaneModel(ai, bj)
				if d := DotFast(ai, bj); math.Float32bits(d) != math.Float32bits(want) {
					t.Fatalf("k=%d (%d,%d): DotFast %v, model %v", k, i, j, d, want)
				}
				if g := got.Data[i*5+j]; math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("k=%d (%d,%d): MatMulT %v, model %v", k, i, j, g, want)
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
				gemm4x16(kc, row(0), row(1), row(2), row(3), &bp[s*kc*gemmNR], &out[s*gemmNR], &out[ldd+s*gemmNR], &out[2*ldd+s*gemmNR], &out[3*ldd+s*gemmNR], false)
			}
		}},
		{"8x32/zmm", 8, func() {
			for s := 0; s < ns; s += 2 {
				gemm8x32(kc, row(0), kc, &bp[s*kc*gemmNR], &bp[(s+1)*kc*gemmNR], &out[s*gemmNR], ldd, false)
			}
		}},
		{"4x16o/ymm", 4, func() {
			for s := 0; s < ns; s++ {
				gemm4x16o(kc, row(0), row(1), row(2), row(3), &bp[s*gemmNR], &offs[0], &out[s*gemmNR], &out[ldd+s*gemmNR], &out[2*ldd+s*gemmNR], &out[3*ldd+s*gemmNR], false)
			}
		}},
		{"8x32o/zmm", 8, func() {
			for s := 0; s < ns; s += 2 {
				gemm8x32o(kc, row(0), kc, &bp[s*gemmNR], &bp[(s+1)*gemmNR], &offs[0], &out[s*gemmNR], ldd, false)
			}
		}},
		{"1x16s/ymm", 1, func() { gemm1x16s(kc, ns, row(0), &bp[0], &out[0], false) }},
		{"1x64s/zmm", 1, func() { gemm1x64s(kc, ns/4, row(0), &bp[0], &out[0], false) }},
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

// saltDot fills the rows of x with magnitudes over six decades and then a
// NaN, ±Inf, ±0, products that are exactly −0 and subnormals at scattered
// places, each in a few rows only so most outputs stay finite. Row 4 is
// 1e-30 throughout, times tiny: against another saltDot's row 4 (seed + 1,
// so −1e-30) every product rounds to −0, every lane partial is −0 and so is
// the sum — which a lane the 8-float step touches without its mask, or a
// reduction that adds a +0, turns into +0.
func saltDot(seed int64, rows, k, ld int) []float32 {
	x := randMat(seed, rows, ld).Data
	for i := range x {
		x[i] *= float32(math.Pow(10, float64(i%7)-3))
	}
	if rows > 4 {
		tiny := float32(1e-30)
		if seed%2 == 1 {
			tiny = -tiny
		}
		for p := 0; p < k; p++ {
			x[4*ld+p] = tiny
		}
	}
	specials := []float32{f32NaN, float32(math.Inf(1)), float32(math.Inf(-1)), f32(0x80000000), 0, f32(1), f32(0x807fffff), 1e-30, -1e-30}
	for r := 0; r < rows; r++ {
		if k == 0 || r%3 == 2 || r == 4 {
			continue
		}
		v := specials[(int(seed)+r)%len(specials)]
		x[r*ld+(r*7919)%k] = v
		x[r*ld+(r*104729+k/2)%k] = -v
	}
	return x
}

// sameFloat reports bit equality, any NaN matching any NaN: dotLaneModel's
// round-to-odd helper may turn a NaN into Go's own.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// TestDotTileMatchesLaneModel is the dot tile kernels' gate: DotTile, and the
// accumulating dotTile under gemmDotPart, give every output dotLaneModel's
// value and dot8's bits at both widths — on every shape M ∈ 1…9 × N ∈ 1…13
// (each tile shape, every mix of bands, both loop orders of a band, tiles
// moved back at the column edge, the one-output fallback), on
// TestDotFastLaneOrder's K list, with strided operands and output, and with
// NaN, ±Inf, ±0, exact −0 products and subnormals in the operands — and
// DotFast's bits on the portable twin.
func TestDotTileMatchesLaneModel(t *testing.T) {
	if !useGemmAsm {
		t.Skip("no AVX2 kernel on this machine")
	}
	const maxM, maxN = 9, 13
	for _, k := range []int{0, 1, 7, 8, 31, 32, 33, 63, 100, 1024, 1031, 1055, 9216} {
		lda, ldb, ldd := k+3, k+5, maxN+2
		a, b := saltDot(int64(k), maxM, k, lda), saltDot(int64(k)+1, maxN, k, ldb)
		var model [maxM][maxN]float32
		for i := range model {
			for j := range model[i] {
				model[i][j] = dotLaneModel(a[i*lda:][:k], b[j*ldb:][:k])
			}
		}
		dst0 := randMat(int64(k)+2, maxM, ldd).Data
		for _, mode := range []struct {
			name      string
			asm, wide bool
		}{{"avx512", true, true}, {"avx2", true, false}, {"portable", false, false}} {
			runWithGemm512(mode.wide, func() {
				runWithAsm(mode.asm, func() {
					for m := 1; m <= maxM; m++ {
						for n := 1; n <= maxN; n++ {
							got, acc := make([]float32, len(dst0)), append([]float32(nil), dst0...)
							DotTile(got, ldd, a, lda, m, b, ldb, n, k)
							gemmDotPart(acc, ldd, a, lda, m, b, ldb, k, n)
							for i := 0; i < m; i++ {
								for j := 0; j < n; j++ {
									dot, g := DotFast(a[i*lda:][:k], b[j*ldb:][:k]), got[i*ldd+j]
									if math.Float32bits(g) != math.Float32bits(dot) || mode.asm && !sameFloat(g, model[i][j]) {
										t.Fatalf("%s k=%d %dx%d (%d,%d): DotTile %v (%#x), DotFast %v (%#x), model %v",
											mode.name, k, m, n, i, j, g, math.Float32bits(g), dot, math.Float32bits(dot), model[i][j])
									}
									if g, w := acc[i*ldd+j], dst0[i*ldd+j]+dot; math.Float32bits(g) != math.Float32bits(w) {
										t.Fatalf("%s k=%d %dx%d (%d,%d): accumulated %v, want %v", mode.name, k, m, n, i, j, g, w)
									}
								}
							}
							for i, v := range got {
								if r, c := i/ldd, i%ldd; (r >= m || c >= n) && v != 0 {
									t.Fatalf("%s k=%d %dx%d: wrote element (%d,%d) outside the product", mode.name, k, m, n, r, c)
								}
							}
							// Both loop orders of the band dotTile hands its first
							// tile shape, whichever dotAInner picks.
							if mr, nr := dotTileShape(m, n); useGemm512 && k >= 8 && mr > 0 {
								rows := m / mr * mr
								for _, aInner := range []bool{false, true} {
									band := make([]float32, len(dst0))
									dotBand(band, ldd, a, lda, rows, b, ldb, n, k, false, mr, nr, aInner)
									for i := 0; i < rows*ldd; i++ {
										if math.Float32bits(band[i]) != math.Float32bits(got[i]) {
											t.Fatalf("%s k=%d %dx%d aInner=%v: band element (%d,%d) %v, DotTile %v", mode.name, k, m, n, aInner, i/ldd, i%ldd, band[i], got[i])
										}
									}
								}
							}
						}
					}
				})
			})
		}
	}
}

// BenchmarkDotTileShapes is the measurement behind dotTileShape and
// dotAInner: each tile kernel in both loop orders, and dot8 one output at a
// time, over whole bands of the shapes the dot products serve — the
// offline_tail FC, a one-row FC, the train workload's Linear, a band whose A
// leaves the L2 (the embedded_large fixture's FC training) and HD similarity
// (N = 10, where every tile repeats two columns).
func BenchmarkDotTileShapes(b *testing.B) {
	if !useGemm512 {
		b.Skip("no usable AVX-512 state on this machine")
	}
	for _, s := range []struct{ m, n, k int }{{64, 100, 1024}, {1, 100, 2048}, {32, 1024, 1024}, {32, 100, 18432}, {512, 10, 3000}} {
		a, bt := randMat(1, s.m, s.k).Data, randMat(2, s.n, s.k).Data
		dst := make([]float32, s.m*s.n)
		for _, sh := range []struct {
			mr, nr int
			aInner bool
		}{{0, 0, false}, {4, 3, false}, {4, 3, true}, {1, 12, false}, {1, 12, true}} {
			if sh.mr > 0 && (s.m%sh.mr != 0 || s.n < sh.nr) || sh.aInner && s.m == sh.mr {
				continue
			}
			name := fmt.Sprintf("%dx%dx%d/%dx%d", s.m, s.n, s.k, sh.mr, sh.nr)
			switch {
			case sh.mr == 0:
				name = fmt.Sprintf("%dx%dx%d/dot8", s.m, s.n, s.k)
			case sh.aInner:
				name += "/a-inner"
			case s.m > sh.mr:
				name += "/b-inner"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if sh.mr > 0 {
						dotBand(dst, s.n, a, s.k, s.m, bt, s.k, s.n, s.k, false, sh.mr, sh.nr, sh.aInner)
						continue
					}
					for r := 0; r < s.m; r++ {
						for j := 0; j < s.n; j++ {
							dst[r*s.n+j] = dotAsm(a[r*s.k:][:s.k], bt[j*s.k:][:s.k])
						}
					}
				}
				b.ReportMetric(float64(2*s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}

// hostileFill returns n floats of which about a third are specials: NaNs of
// both signs with distinct quiet and signalling payloads, ±0, ±Inf and
// denormals, the rest ordinary values over six decades. With that density a
// product of two NaNs and a NaN product added to a NaN sum both occur in
// most outputs, the cases where the payload depends on operand order.
func hostileFill(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		switch r := rng.Intn(12); {
		case r < 2:
			payload := uint32(rng.Intn(1<<21)) | 1
			sign := uint32(rng.Intn(2)) << 31
			quiet := uint32(rng.Intn(2)) << 22
			x[i] = f32(sign | 0x7F800000 | quiet | payload)
		case r == 2:
			x[i] = elemSpecials[4+rng.Intn(8)] // ±Inf, ±0, denormals
		case r == 3:
			x[i] = f32(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31) // a random denormal
		default:
			x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		}
	}
	return x
}

// TestGemmRaggedMatchesTwin is gemm4xw's gate: through gemmRaggedPart it must
// leave every float of the output buffer — padding included — with the bits
// gemmGoPart leaves, on every ragged width w ∈ 1…15, rows m ∈ 1…9 (whole
// four-row groups and the twin's leftover rows), K blocks of 1, 7, 255 and
// 256 steps, padded leading dimensions, and hostile fills in A, B and the
// accumulated output. NaN payloads are compared too: the kernel must take
// them from the same operand the twin's MULSS and ADDSS do.
func TestGemmRaggedMatchesTwin(t *testing.T) {
	if !useGemmAsm {
		t.Skip("no AVX2 kernel on this machine")
	}
	rng := rand.New(rand.NewSource(36))
	for w := 1; w < gemmNR; w++ {
		for m := 1; m <= 9; m++ {
			for _, kc := range []int{1, 7, gemmKC - 1, gemmKC} {
				lda, ldb, ldd := kc+3, w+rng.Intn(5), w+1+rng.Intn(4)
				a := hostileFill(rng, m*lda)
				b := hostileFill(rng, (kc-1)*ldb+w)
				want := hostileFill(rng, (m-1)*ldd+w+3)
				got := append([]float32(nil), want...)
				gemmGoPart(want, ldd, a, lda, m, b, ldb, kc, w)
				gemmRaggedPart(got, ldd, a, lda, m, b, ldb, kc, w)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("w=%d m=%d kc=%d: float %d (row %d) is %#08x, twin %#08x",
							w, m, kc, i, i/ldd, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// BenchmarkGemmRagged times one K block of the ragged columns of a 128-row
// product — the 2×2 convs' per-sample products of the teacher pass, where all
// four columns are ragged — on gemm4xw and on its Go twin.
func BenchmarkGemmRagged(b *testing.B) {
	if !useGemmAsm {
		b.Skip("no AVX2 kernel on this machine")
	}
	const m, kc = 128, gemmKC
	for _, w := range []int{4, 8, 11} {
		a := randMat(1, m, kc).Data
		bm := randMat(2, kc, w).Data
		out := make([]float32, m*w)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"asm", func() { gemmRaggedPart(out, w, a, kc, m, bm, w, kc, w) }},
			{"twin", func() { gemmGoPart(out, w, a, kc, m, bm, w, kc, w) }},
		} {
			b.Run(fmt.Sprintf("w%d/%s", w, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(out)
					k.run()
				}
				b.ReportMetric(float64(2*m*w*kc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}
