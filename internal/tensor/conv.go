package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to an input of C channels and H×W spatial extent.
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate checks the geometry produces a positive output extent.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	}
	if g.KH <= 0 || g.KW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive kernel/stride %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry yields non-positive output %+v", g)
	}
	return nil
}

// Im2Col expands one image (C×H×W, flattened in x) into a matrix of shape
// (C*KH*KW) × (OutH*OutW), written into cols. Each column holds the receptive
// field of one output location; out-of-bounds (padding) positions are zero.
func Im2Col(g ConvGeom, x []float32, cols *Tensor) {
	rows, nOut := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	if cols.Shape[0] != rows || cols.Shape[1] != nOut {
		panic(fmt.Sprintf("tensor: Im2Col output shape %v, want [%d %d]", cols.Shape, rows, nOut))
	}
	Im2ColWindow(g, x, cols.Data, nOut, 0)
}

// Im2ColWindow is Im2Col into a column window of a wider matrix: row r of the
// image's column matrix is written to dst[r*ld+off : r*ld+off+OutH*OutW]. A
// chunk of samples stacked side by side this way is one GEMM operand.
func Im2ColWindow(g ConvGeom, x, dst []float32, ld, off int) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((c*g.KH+kh)*g.KW+kw)*ld + off
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					dstBase := row + oh*outW
					if ih < 0 || ih >= g.InH {
						clear(dst[dstBase : dstBase+outW])
						continue
					}
					srcBase := chanBase + ih*g.InW
					if g.StrideW == 1 {
						// iw = ow - PadW + kw is in bounds on [owLo, owHi):
						// one bulk copy flanked by zero fills.
						owLo := max(0, g.PadW-kw)
						owHi := min(outW, g.InW+g.PadW-kw)
						owHi = max(owHi, owLo)
						clear(dst[dstBase : dstBase+owLo])
						s := srcBase + owLo - g.PadW + kw
						copy(dst[dstBase+owLo:dstBase+owHi], x[s:s+owHi-owLo])
						clear(dst[dstBase+owHi : dstBase+outW])
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							dst[dstBase+ow] = 0
						} else {
							dst[dstBase+ow] = x[srcBase+iw]
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters the column matrix (as produced by Im2Col) back into an
// image gradient of C×H×W, accumulating overlapping contributions into dx.
// dx must be pre-zeroed by the caller if accumulation from scratch is wanted.
func Col2Im(g ConvGeom, cols *Tensor, dx []float32) {
	Col2ImWindow(g, cols.Data, g.OutH()*g.OutW(), 0, dx)
}

// Col2ImWindow is Col2Im from a column window of a wider matrix, the layout
// Im2ColWindow writes: row r is read at src[r*ld+off : r*ld+off+OutH*OutW].
func Col2ImWindow(g ConvGeom, src []float32, ld, off int, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((c*g.KH+kh)*g.KW+kw)*ld + off
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					srcBase := row + oh*outW
					dstBase := chanBase + ih*g.InW
					if g.StrideW == 1 {
						// The in-bounds range of Im2ColWindow, accumulated as
						// one contiguous run (×1 is exact).
						owLo := max(0, g.PadW-kw)
						owHi := min(outW, g.InW+g.PadW-kw)
						if owLo < owHi {
							axpy1(1, src[srcBase+owLo:srcBase+owHi], dx[dstBase+owLo-g.PadW+kw:])
						}
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw >= 0 && iw < g.InW {
							dx[dstBase+iw] += src[srcBase+ow]
						}
					}
				}
			}
		}
	}
}
