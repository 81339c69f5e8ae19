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
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			scratch := make([]float32, max(GemmScratch(), PanelScratch(), ConvTileScratch(g, 5, 12), ConvGemmScratch(gw)))
			prepacked, remat := PrepackPanels(mat), RematPanels(gen)
			for name, product := range map[string]func(){
				"dense":               func() { MatMulSerialInto(out, a, mat, scratch) },
				"transposed, accum":   func() { MatMulAccTSerialInto(accDst, accA, accB, scratch) },
				"panels, prepacked":   func() { MatMulPanelsInto(out, a, prepacked, scratch) },
				"panels, remat":       func() { MatMulPanelsInto(out, a, remat, scratch) },
				"panels, one K block": func() { AccumPanelsKBlock(out.Data, n, a.Data, k, 1, prepacked, 0, k, nil) },
				"conv, full map":      func() { ConvMulSerialInto(convOut, wmat, g, x, scratch) },
				"conv, cut tile":      func() { ConvMulRowsInto(convOut.Data, 12*12, 3*12, wmat, g, x, 0, 12, 3, 7, scratch) },
				"conv, wide map":      func() { ConvMulSerialInto(wideOut, wmat, gw, xw, scratch) },
				"conv, wide tile":     func() { ConvMulRowsInto(wideOut.Data, 8*16, 2*16, wmat, gw, xw, 0, 8, 2, 5, scratch) },
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
				{"transposed", gemmB{kind: bDenseT, n: n, b: bt.Data, k: k}},
				{"prepacked", gemmB{kind: bPanels, n: n, pp: PrepackPanels(genMat)}},
				{"remat", gemmB{kind: bPanels, n: n, pp: RematPanels(gen)}},
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
							func(dst []float32) { gemmDrive(dst, n, a.Data, k, m, &s.src, c0, c1, 0, k, scratch, false) })
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
								gemmDrive(dst[or0*outW:], nOut, w.Data, kdim, m, &src, or0*outW, or1*outW, 0, kdim, scratch, false)
							})
					}
				}
			}
		}
	}
}
