package tensor

import "fmt"

// Row-tiled implicit-GEMM convolution: the fused extraction blocks compute a
// conv a handful of output rows at a time, into cache-resident tile buffers,
// reading only a row window of the input. Output tiling splits the GEMM's N
// dimension, which the blocked driver (gemm_driver.go) treats as a column
// range on the full map's strip grid — a tile edge that cuts a 16-strip goes
// through the driver's spill buffer — so the tiled product is bit-identical
// to ConvMulSerialInto on the full map. TestConvMulRowsMatchesSerial pins
// tiled == full across random geometries, ragged tile splits, and row windows.

// ConvTileScratch returns the float32 scratch length ConvMulRowsInto needs
// for a conv of geometry g with outC output channels computing up to outRows
// output rows per call: the padded window of those rows in offset form, else
// the driver's generate-into buffer and an [outC, 16] spill buffer for strips
// cut by tile edges.
func ConvTileScratch(g ConvGeom, outC, outRows int) int { return convScratch(g, outRows, outC) }

// ConvMulRowsInto computes output rows [or0, or1) of the implicit-GEMM conv
// wmat(OutC × C·KH·KW) @ im2col(g, ·) — i.e. columns [or0·OutW, or1·OutW) of
// the full product — writing element (oc, j) to dst[oc·ldd + dstOff + j −
// or0·OutW]. x holds input rows [xRow0, xRow0+xRows) of each channel plane
// (channel stride xRows·InW) and must cover every in-bounds row the
// requested output rows read. Strictly serial, zero heap allocations;
// scratch needs ConvTileScratch(g, OutC, or1−or0) floats. Bit-identical to
// the same region of ConvMulSerialInto.
func ConvMulRowsInto(dst []float32, ldd, dstOff int, wmat *Tensor, g ConvGeom,
	x []float32, xRow0, xRows, or0, or1 int, scratch []float32) {
	kdim := g.InC * g.KH * g.KW
	outW := g.OutW()
	if wmat.Rank() != 2 || wmat.Shape[1] != kdim {
		panic(fmt.Sprintf("tensor: ConvMulRows weight shape %v, want [*, %d]", wmat.Shape, kdim))
	}
	m := wmat.Shape[0]
	if or0 < 0 || or1 > g.OutH() || or0 > or1 {
		panic(fmt.Sprintf("tensor: ConvMulRows rows [%d, %d) outside [0, %d)", or0, or1, g.OutH()))
	}
	if need := ConvTileScratch(g, m, or1-or0); len(scratch) < need {
		panic(fmt.Sprintf("tensor: ConvMulRows scratch %d < ConvTileScratch %d", len(scratch), need))
	}
	src := convB(g, x, xRow0, xRows, scratch, or0, or1)
	gemmDrive(dst[dstOff:], ldd, gemmA{a: wmat.Data, lda: kdim}, m, &src, or0*outW, or1*outW, 0, kdim, scratch, true)
}
