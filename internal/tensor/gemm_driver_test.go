package tensor

import "testing"

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
