package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func f32(bits uint32) float32 { return math.Float32frombits(bits) }

// f32NaN is the NaN x86 produces for an invalid operation (0·∞, ∞−∞): with it
// as the only NaN an operand carries, every NaN a kernel returns has its bits
// whichever operand an add or FMA takes its payload from.
var f32NaN = f32(0xFFC00000)

// elemSpecials are the inputs on which a vector compare, a sign-bit trick or a
// VMAXPS would part ways with Go's scalar comparisons.
var elemSpecials = []float32{
	f32(0x7FC00000), f32(0xFFC00000), f32(0x7FA00001), f32(0xFFA00001), // NaN, both signs, quiet and signalling
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, f32(0x80000000),
	f32(0x00000001), f32(0x80000001), f32(0x007FFFFF), f32(0x807FFFFF), // denormals; the first two are nextafter(0, ±∞)
	6, math.Nextafter32(6, float32(math.Inf(1))), math.Nextafter32(6, float32(math.Inf(-1))),
	-6, 1, -1,
}

// elemLengths covers every remainder around the 8-wide step plus the long
// slices a feature map produces.
func elemLengths() []int {
	var ns []int
	for n := 0; n <= 41; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1023, 1024, 1025)
}

// salted returns n values in (-8, 8) of random sign with a quarter of them
// replaced by specials.
func salted(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = elemSpecials[rng.Intn(len(elemSpecials))]
		} else {
			x[i] = rng.Float32()*16 - 8
		}
	}
	return x
}

// checkElemKernel runs kernel over every length and every start offset 0…7 of
// an unaligned backing array, through the assembly at both widths (where the
// machine has them) and through the Go twin, and requires each to equal ref —
// the scalar loop the kernel replaced — bit for bit. It also requires zero
// allocations per call.
func checkElemKernel(t *testing.T, seed int64, kernel func(x []float32), ref func(v float32) float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, n := range elemLengths() {
		for off := 0; off < 8; off++ {
			in := salted(rng, off+n)[off:]
			for _, mode := range []struct{ asm, wide bool }{{true, true}, {true, false}, {false, false}} {
				got := append([]float32(nil), in...)
				if !runWithGemm512(mode.wide, func() { runWithAsm(mode.asm, func() { kernel(got) }) }) {
					continue
				}
				for i, v := range in {
					if w := ref(v); math.Float32bits(got[i]) != math.Float32bits(w) {
						t.Fatalf("asm=%v 512=%v n=%d off=%d: [%d] = %08x, want %08x (input %08x)",
							mode.asm, mode.wide, n, off, i, math.Float32bits(got[i]), math.Float32bits(w), math.Float32bits(v))
					}
				}
			}
		}
	}
	buf := salted(rng, 1025)
	if a := testing.AllocsPerRun(10, func() { kernel(buf) }); a != 0 {
		t.Errorf("%v allocations per call, want 0", a)
	}
}

func TestSignInPlaceMatchesScalar(t *testing.T) {
	checkElemKernel(t, 71, SignInPlace, func(v float32) float32 {
		if v < 0 {
			return -1
		}
		return 1
	})
}

func refReLU6(v float32) float32 {
	switch {
	case v <= 0:
		return 0
	case v >= 6:
		return 6
	}
	return v
}

// TestClampReLU6IntoMatchesScalar: in place, and from a separate src.
func TestClampReLU6IntoMatchesScalar(t *testing.T) {
	checkElemKernel(t, 72, func(x []float32) { ClampReLU6Into(x, x) }, refReLU6)
	src := make([]float32, 4096)
	checkElemKernel(t, 73, func(x []float32) { ClampReLU6Into(x, src[:copy(src, x)]) }, refReLU6)
}

func TestAffineActInPlaceMatchesScalar(t *testing.T) {
	inf := float32(math.Inf(1))
	// NaN parameters are left out: with a NaN input too, which payload
	// survives depends on operand order, which Go does not fix.
	params := [][4]float32{ // g, mean, invStd, b
		{1.25, 0.5, 0.75, -0.125},
		{-0.7, -3, 2.5, 6},
		{1, 0, 1, 0},
		{0, 0, 1, f32(0x80000000)},
		{f32(0x80000000), 1, 1, 0},
		{1, inf, 1, 0},
		{2, 0, inf, -inf},
		{3e38, -3e38, 3e38, 1},
		{1e-30, 0, 1e-30, 0},
	}
	for _, p := range params {
		g, mean, invStd, b := p[0], p[1], p[2], p[3]
		for _, act := range []Act{ActNone, ActReLU, ActReLU6} {
			checkElemKernel(t, 73, func(x []float32) { AffineActInPlace(x, g, mean, invStd, b, act) },
				func(v float32) float32 {
					y := g*(v-mean)*invStd + b
					switch act {
					case ActReLU:
						if y <= 0 {
							y = 0
						}
					case ActReLU6:
						y = refReLU6(y)
					}
					return y
				})
		}
	}
}

// refDepthwiseRow is DepthwiseConv2D.convChannel's inner loop for one output:
// a single accumulator taking every tap in kh-major, kw-minor order.
func refDepthwiseRow(dst, src []float32, ld, stride int, ker []float32, kw, rows int) {
	for j := range dst {
		var s float32
		for r := 0; r < rows; r++ {
			for c := 0; c < kw; c++ {
				s += src[r*ld+j*stride+c] * ker[r*kw+c]
			}
		}
		dst[j] = s
	}
}

// sameDepthwiseBits compares two accumulated outputs bit for bit, except that
// any NaN equals any NaN: when an add meets two NaNs (a salted input and the
// default NaN of Inf·0, say) x86 keeps the first operand's payload, and Go
// may commute the scalar add.
func sameDepthwiseBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func TestDepthwise3x3RowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	// Row subsets {0,1,2}, {1,2}, {0,1} (and the one-row {1} of a 1-high map)
	// as (first kernel row, row count).
	subsets := [][2]int{{0, 3}, {1, 2}, {0, 2}, {1, 1}}
	for w := 3; w <= 40; w++ {
		for _, ld := range []int{w, w + 5} {
			for _, sub := range subsets {
				for off := 0; off < 8; off++ {
					kr0, rows := sub[0], sub[1]
					src := salted(rng, off+(rows-1)*ld+w)[off:]
					ker := salted(rng, 9)
					want := make([]float32, w-2)
					refDepthwiseRow(want, src, ld, 1, ker[kr0*3:], 3, rows)
					for _, asm := range []bool{true, false} {
						got := salted(rng, off+w-2)[off:]
						if !runWithAsm(asm, func() { Depthwise3x3Row(got, src, ld, ker[kr0*3:], rows) }) {
							continue
						}
						for j := range want {
							if !sameDepthwiseBits(got[j], want[j]) {
								t.Fatalf("asm=%v w=%d ld=%d rows=%d@%d off=%d: [%d] = %08x, want %08x",
									asm, w, ld, rows, kr0, off, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
							}
						}
					}
				}
			}
		}
	}
	src, ker, dst := salted(rng, 3*40), salted(rng, 9), make([]float32, 38)
	if a := testing.AllocsPerRun(10, func() { Depthwise3x3Row(dst, src, 40, ker, 3) }); a != 0 {
		t.Errorf("%v allocations per call, want 0", a)
	}
}

// TestDepthwiseRowMatchesScalar pins the interleaved Go twin on the
// geometries the vector kernel leaves to it: stride 2 and 5-wide kernels.
func TestDepthwiseRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, kw := range []int{3, 5} {
		for _, stride := range []int{1, 2} {
			for rows := 0; rows <= kw; rows++ {
				for outW := 0; outW <= 19; outW++ {
					ld := (outW-1)*stride + kw + 3
					src := salted(rng, max(rows, 1)*ld)
					ker := salted(rng, kw*kw)
					want, got := make([]float32, outW), salted(rng, outW)
					refDepthwiseRow(want, src, ld, stride, ker, kw, rows)
					DepthwiseRow(got, src, ld, stride, ker, kw, rows)
					for j := range want {
						if !sameDepthwiseBits(got[j], want[j]) {
							t.Fatalf("kw=%d stride=%d rows=%d outW=%d: [%d] = %08x, want %08x",
								kw, stride, rows, outW, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// refDepthwisePlane is the depthwise convolution's definition for one plane,
// sharing nothing with DepthwisePlane: per output one float32 accumulator
// from +0 over the in-image taps only, kh-major, kw-minor, each product
// converted (so rounded) before the add.
func refDepthwisePlane(g ConvGeom, dst, src, ker []float32) {
	outW := g.OutW()
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < outW; ow++ {
			var s float32
			for kh := 0; kh < g.KH; kh++ {
				ih := oh*g.StrideH - g.PadH + kh
				if ih < 0 || ih >= g.InH {
					continue
				}
				for kw := 0; kw < g.KW; kw++ {
					if iw := ow*g.StrideW - g.PadW + kw; iw >= 0 && iw < g.InW {
						s += float32(src[ih*g.InW+iw] * ker[kh*g.KW+kw])
					}
				}
			}
			dst[oh*outW+ow] = s
		}
	}
}

// finiteSalted is salted without NaN and ±Inf: DepthwisePlane's bits are the
// definition's for finite weights (its doc comment).
func finiteSalted(rng *rand.Rand, n int) []float32 {
	x := salted(rng, n)
	for i, v := range x {
		if v != v || math.IsInf(float64(v), 0) {
			x[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// TestDepthwisePlaneMatchesScalar runs the plane kernel at every width this
// machine has — the 512-bit plane kernels, the AVX2 row kernel, the Go twin —
// over degenerate and ragged maps (widths around the 8- and 16-wide steps,
// maps narrower than the kernel), both strides, pads 0–2 and 3×3 and 5×5
// kernels, on pixels salted with NaN, ±Inf, ±0 and subnormals, against the
// definition. Two planes share one window, as a layer's channels do, so a
// kernel that wrote the padding would fail the second. Bits must match,
// except that any NaN equals any NaN (sameDepthwiseBits). No allocation.
func TestDepthwisePlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	type width struct {
		name     string
		asm, z16 bool
	}
	widths := []width{{"avx512", true, true}, {"avx2", true, false}, {"twin", false, false}}
	ran := map[string]int{}
	for _, k := range []int{3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, h := range []int{1, 2, 3, 5} {
					for _, w := range []int{1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 48} {
						g := ConvGeom{InC: 1, InH: h, InW: w, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						if g.Validate() != nil {
							continue
						}
						n := g.OutH() * g.OutW()
						srcs := [2][]float32{salted(rng, h*w), salted(rng, h*w)}
						kers := [2][]float32{finiteSalted(rng, k*k), finiteSalted(rng, k*k)}
						var want [2][]float32
						for p := range want {
							want[p] = make([]float32, n)
							refDepthwisePlane(g, want[p], srcs[p], kers[p])
						}
						for _, wd := range widths {
							win := make([]float32, DepthwiseWindowLen(g))
							got := make([]float32, n+1)
							ok := runWithGemm512(wd.z16, func() {
								runWithAsm(wd.asm, func() {
									ran[wd.name]++
									for p := range want {
										got[n] = -999
										DepthwisePlane(g, got[:n], srcs[p], kers[p], win)
										for j := range want[p] {
											if !sameDepthwiseBits(got[j], want[p][j]) {
												t.Fatalf("%s k=%d s=%d p=%d %dx%d plane %d: [%d] = %08x, want %08x", wd.name, k, stride, pad, h, w, p,
													j, math.Float32bits(got[j]), math.Float32bits(want[p][j]))
											}
										}
										if got[n] != -999 {
											t.Fatalf("%s k=%d s=%d p=%d %dx%d: wrote past the plane", wd.name, k, stride, pad, h, w)
										}
									}
								})
							})
							if !ok {
								ran[wd.name] = 0
							}
						}
					}
				}
			}
		}
	}
	t.Logf("planes checked per width: %v", ran)
	g := ConvGeom{InC: 1, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src, ker, dst, win := salted(rng, 32*32), finiteSalted(rng, 9), make([]float32, 32*32), make([]float32, DepthwiseWindowLen(g))
	if a := testing.AllocsPerRun(10, func() { DepthwisePlane(g, dst, src, ker, win) }); a != 0 {
		t.Errorf("%v allocations per call, want 0", a)
	}
}

// TestMaxPool2x2RowMatchesScalar checks the pooling row kernel against the
// loop it replaced in MaxPool2D.ForwardInfer and the fused blocks, by bits,
// over every remainder of the 8-wide step, unaligned rows, and inputs dense
// in NaN (both signs), ±0 and ±Inf, where VMAXPS with its operands the other
// way round would pick a different tap.
func TestMaxPool2x2RowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range elemLengths() {
		for off := 0; off < 8; off++ {
			r0, r1 := salted(rng, off+2*n+1)[off:], salted(rng, off+2*n+3)[off:]
			want := make([]float32, n)
			for j := range want {
				best := r0[2*j]
				for _, v := range []float32{r0[2*j+1], r1[2*j], r1[2*j+1]} {
					if v > best {
						best = v
					}
				}
				want[j] = best
			}
			for _, asm := range []bool{true, false} {
				got := make([]float32, n+1)
				got[n] = -999
				if !runWithAsm(asm, func() { MaxPool2x2Row(got[:n], r0, r1) }) {
					continue
				}
				for j, w := range want {
					if math.Float32bits(got[j]) != math.Float32bits(w) {
						t.Fatalf("asm=%v n=%d off=%d: [%d] = %08x, want %08x (taps %08x %08x %08x %08x)", asm, n, off, j,
							math.Float32bits(got[j]), math.Float32bits(w), math.Float32bits(r0[2*j]), math.Float32bits(r0[2*j+1]),
							math.Float32bits(r1[2*j]), math.Float32bits(r1[2*j+1]))
					}
				}
				if got[n] != -999 {
					t.Fatalf("asm=%v n=%d off=%d: wrote past the row", asm, n, off)
				}
			}
		}
	}
	out, r := make([]float32, 48), salted(rng, 96)
	if a := testing.AllocsPerRun(10, func() { MaxPool2x2Row(out, r, r) }); a != 0 {
		t.Errorf("%v allocations per call, want 0", a)
	}
}

// TestSignMatchesSignInPlace pins the allocating and copying forms on the
// in-place kernel they now share.
func TestSignMatchesSignInPlace(t *testing.T) {
	src := FromSlice(salted(rand.New(rand.NewSource(76)), 3*37), 3, 37)
	want := append([]float32(nil), src.Data...)
	SignInPlace(want)
	signed, into := Sign(src), New(3, 37)
	SignInto(into, src)
	for i, w := range want {
		if signed.Data[i] != w || into.Data[i] != w {
			t.Fatalf("[%d] Sign = %v, SignInto = %v, want %v (input %v)", i, signed.Data[i], into.Data[i], w, src.Data[i])
		}
	}
	SignInto(src, src)
	for i, w := range want {
		if src.Data[i] != w {
			t.Fatalf("aliased SignInto [%d] = %v, want %v", i, src.Data[i], w)
		}
	}
}

// benchAsmAndTwin runs body as the sub-benchmarks "asm" and "twin".
func benchAsmAndTwin(b *testing.B, body func(b *testing.B)) {
	for _, asm := range []bool{true, false} {
		name := "twin"
		if asm {
			name = "asm"
		}
		b.Run(name, func(b *testing.B) {
			if !runWithAsm(asm, func() { body(b) }) {
				b.Skip("no AVX2 kernel on this machine")
			}
		})
	}
}

// benchElem times an in-place kernel over 512 Ki random-sign elements. The
// input is restored off the clock before every call: a clamp is idempotent,
// and a second pass over clamped data would hide exactly the mispredictions
// the kernels exist to remove.
func benchElem(b *testing.B, kernel func(x []float32)) {
	const n = 512 << 10
	rng := rand.New(rand.NewSource(81))
	src := make([]float32, n)
	for i := range src {
		src[i] = rng.Float32()*16 - 8
	}
	x := make([]float32, n)
	benchAsmAndTwin(b, func(b *testing.B) {
		b.SetBytes(2 * 4 * n) // read and written once
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(x, src)
			b.StartTimer()
			kernel(x)
		}
	})
}

func BenchmarkSignInPlace(b *testing.B) { benchElem(b, SignInPlace) }

func BenchmarkClampReLU6(b *testing.B) { benchElem(b, func(x []float32) { ClampReLU6Into(x, x) }) }

func BenchmarkAffineAct(b *testing.B) {
	for _, act := range []Act{ActNone, ActReLU, ActReLU6} {
		b.Run(fmt.Sprintf("act%d", act), func(b *testing.B) {
			benchElem(b, func(x []float32) { AffineActInPlace(x, 1.25, 0.5, 0.75, -0.125, act) })
		})
	}
}

// BenchmarkDepthwise3x3Row convolves one 32×32 plane (pad 1: 30 interior
// columns per row, two-row windows at the top and bottom edge) the way
// DepthwiseConv2D.ForwardInfer drives the kernel.
func BenchmarkDepthwise3x3Row(b *testing.B) {
	const h, w = 32, 32
	rng := rand.New(rand.NewSource(82))
	src, ker, dst := make([]float32, h*w), make([]float32, 9), make([]float32, h*w)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	for i := range ker {
		ker[i] = rng.Float32()*2 - 1
	}
	benchAsmAndTwin(b, func(b *testing.B) {
		b.SetBytes(2 * 4 * h * w)
		for i := 0; i < b.N; i++ {
			for oh := 0; oh < h; oh++ {
				r0, r1 := max(oh-1, 0), min(oh+2, h)
				Depthwise3x3Row(dst[oh*w+1:oh*w+w-1], src[r0*w:], w, ker[(r0-oh+1)*3:], r1-r0)
			}
		}
	})
}

// BenchmarkMaxPool2x2Row pools one 96×96 plane, the widest the benchmark's
// extractors pool.
func BenchmarkMaxPool2x2Row(b *testing.B) {
	const h, w = 96, 96
	src, dst := salted(rand.New(rand.NewSource(83)), h*w), make([]float32, h*w/4)
	benchAsmAndTwin(b, func(b *testing.B) {
		b.SetBytes(4 * (h*w + h*w/4))
		for i := 0; i < b.N; i++ {
			for oh := 0; oh < h/2; oh++ {
				MaxPool2x2Row(dst[oh*w/2:(oh+1)*w/2], src[2*oh*w:], src[(2*oh+1)*w:])
			}
		}
	})
}

// TestAccumulateFloat64MatchesGo is the fold's gate: AccumulateFloat64, with
// the AVX2 kernel and on the Go twin, gives every element the twin's bits —
// on every length around the 8-float step and every start offset, adding
// elemSpecials (NaN of both signs, quiet and signalling, ±Inf, ±0,
// subnormals) and random floats to doubles that make the sum round (±1e17)
// or overflow into a NaN (∞ − ∞).
func TestAccumulateFloat64MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range elemLengths() {
		for off := 0; off < 8; off++ {
			src := salted(rng, off+n)[off:]
			dst0 := make([]float64, n)
			for i := range dst0 {
				switch i % 5 {
				case 0:
					dst0[i] = rng.NormFloat64() * 1e17
				case 1:
					dst0[i] = math.Copysign(0, float64(i%3-1))
				case 2:
					dst0[i] = math.Inf(i%3 - 1)
				default:
					dst0[i] = rng.NormFloat64()
				}
			}
			want := append([]float64(nil), dst0...)
			addFloat64Go(want, src)
			for _, asm := range []bool{true, false} {
				got := append([]float64(nil), dst0...)
				if !runWithAsm(asm, func() { AccumulateFloat64(got, src) }) {
					continue
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("asm=%v n=%d off=%d [%d]: %v + %v = %v, twin %v", asm, n, off, i, dst0[i], src[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkAccumulateFloat64 times the serving tail's per-block fold at
// offline_tail's chunk (64 queries × 100 classes), on the AVX2 kernel and on
// the Go twin.
func BenchmarkAccumulateFloat64(b *testing.B) {
	src := randMat(1, 64, 100).Data
	dst := make([]float64, len(src))
	for _, asm := range []bool{true, false} {
		name := "avx2"
		if !asm {
			name = "go"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)) * (4 + 2*8))
			if !runWithAsm(asm, func() {
				for i := 0; i < b.N; i++ {
					AccumulateFloat64(dst, src)
				}
			}) {
				b.Skip("no AVX2 kernel on this machine")
			}
		})
	}
}
