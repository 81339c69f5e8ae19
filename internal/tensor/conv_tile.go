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
	gemmDrive(dst[dstOff:], ldd, wmat.Data, kdim, m, &src, or0*outW, or1*outW, 0, kdim, scratch, true)
}

// Im2ColU8Rows writes the columns of the u8 im2col matrix belonging to conv
// output rows [or0, or1) into cols, row-major with leading dimension
// (or1−or0)·OutW. Values are exactly the corresponding region of Im2ColU8
// (pad at padding positions). x holds input rows [xRow0, xRow0+xRows) of
// each channel plane with channel stride xRows·InW, as in convPackStrips.
// The int8 GEMM is exact integer arithmetic, so any row tiling of the conv
// built on this generator is trivially bit-exact.
func Im2ColU8Rows(g ConvGeom, x []uint8, xRow0, xRows int, cols []uint8, or0, or1 int, pad uint8) {
	outW := g.OutW()
	ld := (or1 - or0) * outW
	rows := g.InC * g.KH * g.KW
	if len(cols) < rows*ld {
		panic(fmt.Sprintf("tensor: Im2ColU8Rows cols %d, want %d", len(cols), rows*ld))
	}
	for c := 0; c < g.InC; c++ {
		chanBase := (c*xRows - xRow0) * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((c*g.KH+kh)*g.KW + kw) * ld
				for oh := or0; oh < or1; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					dstBase := row + (oh-or0)*outW
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < outW; ow++ {
							cols[dstBase+ow] = pad
						}
						continue
					}
					srcBase := chanBase + ih*g.InW
					if g.StrideW == 1 {
						owLo := max(0, g.PadW-kw)
						owHi := min(outW, g.InW+g.PadW-kw)
						owHi = max(owHi, owLo)
						for ow := 0; ow < owLo; ow++ {
							cols[dstBase+ow] = pad
						}
						s := srcBase + owLo - g.PadW + kw
						copy(cols[dstBase+owLo:dstBase+owHi], x[s:s+owHi-owLo])
						for ow := owHi; ow < outW; ow++ {
							cols[dstBase+ow] = pad
						}
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							cols[dstBase+ow] = pad
						} else {
							cols[dstBase+ow] = x[srcBase+iw]
						}
					}
				}
			}
		}
	}
}
