package tensor

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor/tensortest"
)

// TestGemmDriverZeroAlloc is the allocation gate of the blocked driver, one
// product per B source on both builds: a gemmB that escaped its wrapper's
// stack would cost an allocation per GEMM, which the engine's gates would
// only report three packages away. Skinny shapes, as batch-1 serving runs
// them; the 12-wide conv's tile starts and ends inside a 16-column strip, so
// the spill path runs too, and the 16-wide one runs in offset form on the asm
// build, from its padded window.
func TestGemmDriverZeroAlloc(t *testing.T) {
	const k, n = 100, 530
	gen := NewBipolarGen(3, k, n)
	mat := New(k, n)
	gen.FillInto(mat)
	a, out := randMat(1, 1, k), New(1, n)
	accA, accB, accDst := randMat(2, 17, 300), randMat(3, 43, 300), New(17, 43)
	g := ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x, wmat := randMat(4, 1, 3*12*12).Data, randMat(5, 5, 27)
	convOut := New(5, 12*12)
	gw := ConvGeom{InC: 3, InH: 8, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	xw, wideOut := randMat(6, 1, 3*8*16).Data, New(5, 8*16)
	// The in-place training products: two images of g against 16 channels.
	w16, grad16, dwT := randMat(7, 16, 27), randMat(8, 16, 2*12*12), New(27, 16)
	x2, dcols, rowsOut := randMat(9, 1, 2*3*12*12).Data, New(27, 2*12*12), make([]float32, 2*16*12*12)
	packed := make([]float32, 27*16)
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			scratch := make([]float32, max(GemmScratch(), PanelScratch(), ConvTileScratch(g, 5, 12), ConvGemmScratch(gw),
				ConvGradScratch(g, 2), MatMulATScratch(27, 16), ConvRowsScratch(g, 16, 2)))
			prepacked, signs := PrepackPanels(mat), SignPanels(mat)
			rows := func() {}
			if ConvRowsForm(g, 16) {
				PackConvWeights(packed, w16)
				rows = func() { ConvRowsSerialInto(rowsOut, w16, packed, nil, g, x2, 2, 2, scratch) }
			}
			for name, product := range map[string]func(){
				"dense":               func() { MatMulSerialInto(out, a, mat, scratch) },
				"transposed, accum":   func() { MatMulAccTSerialInto(accDst, accA, accB, scratch) },
				"panels, prepacked":   func() { MatMulPanelsInto(out, a, prepacked, scratch) },
				"panels, sign words":  func() { MatMulPanelsInto(out, a, signs, scratch) },
				"panels, one K block": func() { MatMulPanelsKBlock(out.Data, n, a.Data, k, 1, prepacked, 0, k, nil) },
				"conv, full map":      func() { ConvMulSerialInto(convOut, wmat, g, x, scratch) },
				"conv, cut tile":      func() { ConvMulRowsInto(convOut.Data, 12*12, 3*12, wmat, g, x, 0, 12, 3, 7, scratch) },
				"conv, wide map":      func() { ConvMulSerialInto(wideOut, wmat, gw, xw, scratch) },
				"conv, wide tile":     func() { ConvMulRowsInto(wideOut.Data, 8*16, 2*16, wmat, gw, xw, 0, 8, 2, 5, scratch) },
				"conv, weight grad":   func() { ConvWeightGradSerialInto(dwT, g, x2, 2, grad16, scratch) },
				"conv, dcols":         func() { MatMulATSerialInto(dcols, w16, grad16, scratch) },
				"conv, rows form":     rows,
			} {
				if allocs := testing.AllocsPerRun(20, product); allocs != 0 {
					t.Errorf("asm=%v %s: %.1f allocations per product, want 0", asm, name, allocs)
				}
			}
		})
	}
}

// TestGemmGatesAt256 runs the driver's gates a second time with the 512-bit
// kernels off: where those are live, every other test in the package runs on
// them, and the 256-bit kernels they fall back on — for odd strips, for a
// 4-row group, and wholesale on an AVX2 machine — must keep passing the same
// gates, allocation-free.
func TestGemmGatesAt256(t *testing.T) {
	tensortest.At256(t)
	for _, g := range []struct {
		name string
		gate func(*testing.T)
	}{
		{"GemmDriverZeroAlloc", TestGemmDriverZeroAlloc},
		{"MatMulSerialParallelIdentical", TestMatMulSerialParallelIdentical},
		{"GemmSplitTilesExactly", TestGemmSplitTilesExactly},
		{"MatMulPanelsMatchesSerial", TestMatMulPanelsMatchesSerial},
		{"AccumPanelsKBlock", TestAccumPanelsKBlock},
		{"MatMulAccTMatchesNaive", TestMatMulAccTMatchesNaive},
		{"ConvMulMatchesIm2Col", TestConvMulMatchesIm2Col},
		{"ConvMulRowsMatchesSerial", TestConvMulRowsMatchesSerial},
		{"ConvWindowsMatchPerSample", TestConvWindowsMatchPerSample},
		{"TransposeMatMulIntoMatchesReference", TestTransposeMatMulIntoMatchesReference},
	} {
		t.Run(g.name, g.gate)
	}
}

// width512Rows are the row counts of the width gate: every mix of 8-row
// groups, a 4-row group and leftover rows.
var width512Rows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 23}

// bitsDiffer returns the first index at which x and y differ as bit patterns,
// or -1.
func bitsDiffer(x, y []float32) int {
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return i
		}
	}
	return -1
}

// TestGemm512Matches256 is the width gate: through gemmDrive, every B source
// gives the same bits from the 512-bit kernels as from the 256-bit ones. Per
// output lane both run one accumulator over ascending p with one fused
// multiply-add a step, so nothing may differ — not on a K block edge (kc 1,
// 2, 255, 256, 257, 600), not on an odd strip left over from the pairs (or
// one to three left over from a single row's fours), not at any row count's
// mix of 8-row groups, a 4-row group and leftover rows, not on a strip the
// range cuts, and not where a conv's pair of strips straddles an output-row
// wrap (OutW 16 and 48). Products accumulate onto a non-zero output; B carries
// a NaN and an Inf (A does not: a non-finite there would blank its whole
// output row).
func TestGemm512Matches256(t *testing.T) {
	if !useGemm512 {
		t.Skip("no usable AVX-512 state on this machine")
	}
	// both runs one product at each width on a fresh copy of dst0.
	both := func(name string, dst0 []float32, product func(dst []float32)) {
		t.Helper()
		var out [2][]float32
		for i, wide := range []bool{false, true} {
			out[i] = append([]float32(nil), dst0...)
			runWithGemm512(wide, func() { product(out[i]) })
		}
		if i := bitsDiffer(out[0], out[1]); i >= 0 {
			t.Fatalf("%s: element %d is %v at 256 bits, %v at 512", name, i, out[0][i], out[1][i])
		}
	}
	salted := func(seed int64, m, n int) *Tensor {
		x := randMat(seed, m, n)
		if len(x.Data) > 8 {
			x.Data[len(x.Data)/3] = float32(math.Inf(1))
			x.Data[len(x.Data)/2] = float32(math.NaN())
		}
		return x
	}

	for _, k := range []int{1, 2, 255, 256, 257, 600} {
		for _, strips := range []int{1, 2, 3, 4, 5, 17} {
			n := strips*gemmNR + 3 // a ragged tail past the strips
			b := salted(int64(k+strips), k, n)
			bt := Transpose(b)
			gen := NewBipolarGen(int64(k*strips), k, n)
			genMat := New(k, n)
			gen.FillInto(genMat)
			sources := []struct {
				name string
				src  gemmB
			}{
				{"dense", gemmB{kind: bDense, n: n, b: b.Data}},
				{"dense, in place", gemmB{kind: bDense, n: n, b: b.Data, inPlace: true}},
				{"transposed", gemmB{kind: bDenseT, n: n, b: bt.Data, k: k}},
				{"prepacked", gemmB{kind: bPanels, n: n, pp: PrepackPanels(genMat)}},
				{"sign words", gemmB{kind: bPanels, n: n, pp: SignPanels(genMat)}},
			}
			for _, m := range width512Rows {
				a := randMat(int64(m), m, k)
				dst0 := randMat(int64(m+n), m, n).Data
				scratch := make([]float32, driverScratch(true, m))
				// The whole width, and a range that cuts its first and last
				// strip.
				for _, c := range [][2]int{{0, n}, {5, strips*gemmNR - 3}} {
					c0, c1 := c[0], c[1]
					for _, s := range sources {
						both(fmt.Sprintf("%s k=%d strips=%d m=%d cols [%d, %d)", s.name, k, strips, m, c0, c1), dst0,
							func(dst []float32) {
								gemmDrive(dst, n, gemmA{a: a.Data, lda: k}, m, &s.src, c0, c1, 0, k, scratch, false)
							})
					}
				}
			}
		}
	}

	// Convs: offset form at the widths whose strip pairs stay in a row (32,
	// 64), straddle every row wrap (16) or every other one (48), and — 64,
	// 96, 128 — give a leftover row four strips of one image row, four and
	// two, and twice four; packed form at OutW 24, where strips straddle rows
	// inside the pack and a row range cuts them.
	for _, outW := range []int{16, 32, 48, 64, 96, 128, 24} {
		for _, kr := range []struct{ inC, kh, kw, pad int }{{1, 1, 1, 0}, {3, 3, 3, 1}, {29, 3, 3, 1}, {257, 1, 1, 0}} {
			for _, outH := range []int{1, 2, 3, 5} {
				g := ConvGeom{InC: kr.inC, InH: outH + kr.kh - 1 - 2*kr.pad, InW: outW + kr.kw - 1 - 2*kr.pad,
					KH: kr.kh, KW: kr.kw, StrideH: 1, StrideW: 1, PadH: kr.pad, PadW: kr.pad}
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				if ConvOffsetForm(g) != (outW%gemmNR == 0) {
					t.Fatalf("OutW %d: offset form %v", outW, ConvOffsetForm(g))
				}
				kdim, nOut := g.InC*g.KH*g.KW, outH*outW
				x := salted(int64(outW+outH), 1, g.InC*g.InH*g.InW).Data
				for _, m := range width512Rows {
					w := randMat(int64(m+kdim), m, kdim)
					dst0 := randMat(int64(m+nOut), m, nOut).Data
					for _, rows := range [][2]int{{0, outH}, {1, outH - 1}} {
						or0, or1 := rows[0], rows[1]
						if or0 >= or1 {
							continue
						}
						scratch := make([]float32, convScratch(g, or1-or0, m))
						both(fmt.Sprintf("conv OutW=%d kernel %+v rows [%d, %d) of %d m=%d", outW, kr, or0, or1, outH, m), dst0,
							func(dst []float32) {
								src := convB(g, x, 0, g.InH, scratch, or0, or1)
								gemmDrive(dst[or0*outW:], nOut, gemmA{a: w.Data, lda: kdim}, m, &src, or0*outW, or1*outW, 0, kdim, scratch, false)
							})
					}
				}
			}
		}
	}
}

// TestDenseInPlaceMatchesPacked is the in-place gate: a dense B read where it
// lies through the offset kernels gives the packed product's bits, at both
// widths, on every mix of row groups up to denseInPlaceRows, on K block edges,
// on odd strips and a ragged tail, on a range that cuts its first and last
// strip (those two strips are packed either way), and through the entry
// points that choose by the row count — MatMulSerialInto, and MatMulInto's
// split jobs. B carries NaN, ±Inf, −0 and a subnormal; products accumulate
// onto a non-zero output.
func TestDenseInPlaceMatchesPacked(t *testing.T) {
	if !useGemmAsm {
		t.Skip("the portable build has no strips to read in place")
	}
	rows := append(append([]int(nil), width512Rows...), 31, 32)
	for _, wide := range []bool{false, true} {
		runWithGemm512(wide, func() {
			for _, k := range []int{1, 2, 255, 256, 257, 600} {
				for _, strips := range []int{1, 2, 3, 4, 5, 17} {
					n := strips*gemmNR + 3
					b := randMat(int64(k+strips), k, n)
					for i, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), f32(0x80000000), f32(1)} {
						b.Data[(i+1)*len(b.Data)/7] = v
					}
					for _, m := range rows {
						a := randMat(int64(m), m, k)
						dst0 := randMat(int64(m+n), m, n).Data
						scratch := make([]float32, driverScratch(true, m))
						for _, c := range [][2]int{{0, n}, {5, strips*gemmNR - 3}} {
							var out [2][]float32
							for i, inPlace := range []bool{false, true} {
								out[i] = append([]float32(nil), dst0...)
								src := gemmB{kind: bDense, n: n, b: b.Data, inPlace: inPlace}
								gemmDrive(out[i], n, gemmA{a: a.Data, lda: k}, m, &src, c[0], c[1], 0, k, scratch, false)
							}
							if i := bitsDiffer(out[0], out[1]); i >= 0 {
								t.Fatalf("512=%v k=%d strips=%d m=%d cols %v: element %d packed %v, in place %v",
									wide, k, strips, m, c, i, out[0][i], out[1][i])
							}
						}
					}
				}
			}
			// The entry points, with the gate shut and open.
			for _, sh := range [][3]int{{4, 8, 1024}, {32, 300, 100}, {33, 64, 64}, {17, 600, 2000}} {
				m, k, n := sh[0], sh[1], sh[2]
				a, b := randMat(1, m, k), randMat(2, k, n)
				var serial, parallel [2]*Tensor
				for i, gate := range []int{0, denseInPlaceRows} {
					saved := denseInPlaceRows
					denseInPlaceRows = gate
					serial[i], parallel[i] = New(m, n), New(m, n)
					MatMulSerialInto(serial[i], a, b, make([]float32, GemmScratch()))
					MatMulInto(parallel[i], a, b)
					denseInPlaceRows = saved
				}
				for _, p := range [][2]*Tensor{serial, parallel, {serial[0], parallel[1]}} {
					if i := bitsDiffer(p[0].Data, p[1].Data); i >= 0 {
						t.Fatalf("512=%v %dx%dx%d: element %d packed %v, in place %v", wide, m, k, n, i, p[0].Data[i], p[1].Data[i])
					}
				}
			}
		})
	}
}

// TestGemmOverwriteMatchesClear is the zero-start gate: an overwriting
// product (its strip kernels start the first K block at +0 in registers and
// never load the output) gives exactly the bits of clearing the output and
// accumulating into it — at both widths and on the portable build, through
// every B source, on K block edges (1, 255, 256, 257, 600), at row counts
// that give leftover rows alone, a 4-row group, an 8-row group and both with
// a leftover (so through all eight strip kernels), on ranges that cut their
// first and last strip, on single K blocks
// past the first (MatMulPanelsKBlock's range) and on convs in offset and
// packed form. The output starts as NaN, so a lane the product fails to write
// shows. A carries rows of exact zeros of both signs and rows of 1e-30 that
// meet B columns of −1e-30: every product there rounds to −0, so the lane
// sums to −0 — which the clear turns into +0 and the zero start must too. B
// also carries a NaN and an Inf.
func TestGemmOverwriteMatchesClear(t *testing.T) {
	nanFill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = f32NaN
		}
		return x
	}
	// check runs product — m rows of w outputs from dst[off], ldd apart —
	// onto a NaN output with overwrite, and again onto a NaN output whose
	// product region it clears first, without; then compares the bits.
	check := func(name string, size, off, ldd, m, w int, product func(dst []float32, overwrite bool)) {
		t.Helper()
		got, want := nanFill(size), nanFill(size)
		product(got, true)
		for i := 0; i < m; i++ {
			clear(want[off+i*ldd : off+i*ldd+w])
		}
		product(want, false)
		if i := bitsDiffer(got, want); i >= 0 {
			t.Fatalf("%s: element %d is %v (%#x) overwritten, %v (%#x) cleared then accumulated",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	rowCounts := []int{1, 3, 4, 8, 12, 13}
	underflowA := func(seed int64, m, k int) *Tensor {
		a := randMat(seed, m, k)
		for r := 0; r < m; r++ {
			for p := 0; p < k; p++ {
				switch r % 4 {
				case 1:
					a.Data[r*k+p] = 1e-30
				case 2:
					a.Data[r*k+p] = f32(uint32(p%2) << 31) // ±0
				}
			}
		}
		return a
	}
	underflowB := func(seed int64, k, n int) *Tensor {
		b := randMat(seed, k, n)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j += 5 {
				b.Data[p*n+j] = -1e-30
			}
		}
		if len(b.Data) > 8 {
			b.Data[len(b.Data)/3+1] = float32(math.Inf(1))
			b.Data[len(b.Data)/2+1] = f32NaN
		}
		return b
	}
	for _, mode := range []struct {
		name      string
		asm, wide bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"portable", false, false}} {
		runWithGemm512(mode.wide, func() {
			runWithAsm(mode.asm, func() {
				for _, k := range []int{1, 255, 256, 257, 600} {
					for _, strips := range []int{1, 2, 3, 4, 5, 17} {
						n := strips*gemmNR + 3
						b := underflowB(int64(k+strips), k, n)
						bt := Transpose(b)
						gen := NewBipolarGen(int64(k*strips), k, n)
						genMat := New(k, n)
						gen.FillInto(genMat)
						sources := []struct {
							name string
							src  gemmB
						}{
							{"dense", gemmB{kind: bDense, n: n, b: b.Data}},
							{"dense, in place", gemmB{kind: bDense, n: n, b: b.Data, inPlace: mode.asm}},
							{"transposed", gemmB{kind: bDenseT, n: n, b: bt.Data, k: k}},
							{"prepacked", gemmB{kind: bPanels, n: n, pp: PrepackPanels(b)}},
							{"sign words", gemmB{kind: bPanels, n: n, pp: SignPanels(genMat)}},
						}
						for _, m := range rowCounts {
							a := underflowA(int64(m), m, k)
							scratch := make([]float32, driverScratch(true, m))
							for _, c := range [][2]int{{0, n}, {5, strips*gemmNR - 3}} {
								c0, c1 := c[0], c[1]
								for _, s := range sources {
									check(fmt.Sprintf("%s: %s k=%d strips=%d m=%d cols [%d, %d)", mode.name, s.name, k, strips, m, c0, c1), m*n, 0, n, m, c1-c0,
										func(dst []float32, overwrite bool) {
											gemmDrive(dst, n, gemmA{a: a.Data, lda: k}, m, &s.src, c0, c1, 0, k, scratch, overwrite)
										})
								}
							}
							// One K block past the first, its A a compact tile, as
							// the class scorer hands its query blocks over.
							for pb := gemmKC; pb < k; pb += gemmKC {
								pe := min(pb+gemmKC, k)
								tile := make([]float32, 0, m*(pe-pb))
								for i := 0; i < m; i++ {
									tile = append(tile, a.Data[i*k+pb:i*k+pe]...)
								}
								for _, s := range sources[3:] {
									check(fmt.Sprintf("%s: %s K block [%d, %d) of %d, strips=%d m=%d", mode.name, s.name, pb, pe, k, strips, m), m*n, 0, n, m, n,
										func(dst []float32, overwrite bool) {
											panelsKBlock(dst, n, tile, pe-pb, m, s.src.pp, pb, pe, scratch, overwrite)
										})
								}
							}
						}
					}
				}

				// Convs: offset form at OutW 16, 48 and 64 (pairs straddling row
				// wraps, a leftover row's four strips), packed form at 24 — the
				// portable build runs them all packed — over a whole map and a
				// row tile.
				for _, outW := range []int{16, 48, 64, 24} {
					for _, kr := range []struct{ inC, kh, kw, pad int }{{1, 1, 1, 0}, {3, 3, 3, 1}, {29, 3, 3, 1}} {
						outH := 3
						g := ConvGeom{InC: kr.inC, InH: outH + kr.kh - 1 - 2*kr.pad, InW: outW + kr.kw - 1 - 2*kr.pad,
							KH: kr.kh, KW: kr.kw, StrideH: 1, StrideW: 1, PadH: kr.pad, PadW: kr.pad}
						kdim, nOut := g.InC*g.KH*g.KW, outH*outW
						x := underflowB(int64(outW), 1, g.InC*g.InH*g.InW).Data
						for _, m := range rowCounts {
							w := underflowA(int64(m+kdim), m, kdim)
							for _, rows := range [][2]int{{0, outH}, {1, outH - 1}} {
								or0, or1 := rows[0], rows[1]
								scratch := make([]float32, convScratch(g, or1-or0, m))
								check(fmt.Sprintf("%s: conv OutW=%d kernel %+v rows [%d, %d) m=%d", mode.name, outW, kr, or0, or1, m), m*nOut, or0*outW, nOut, m, (or1-or0)*outW,
									func(dst []float32, overwrite bool) {
										src := convB(g, x, 0, g.InH, scratch, or0, or1)
										gemmDrive(dst[or0*outW:], nOut, gemmA{a: w.Data, lda: kdim}, m, &src, or0*outW, or1*outW, 0, kdim, scratch, overwrite)
									})
							}
						}
					}
				}
			})
		})
	}
}
