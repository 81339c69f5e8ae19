package tensor

import (
	"fmt"
	"math"
	"testing"
)

// windowLattice is the geometry sweep of the two window tests: K ∈ {1, 3, 5,
// 7} against every H, W pair from maps narrower than the kernel's padding up
// to ones past two vector widths, same-padded (the flat-shift path at stride
// 1), unpadded and under-padded by one, at stride 1 and 2. Geometries with no
// output are skipped; a kernel whose outer taps never reach the image (7×7
// pad 3 on 2×2, 7×7 pad 2 on 3×3) is not.
func windowLattice(visit func(g ConvGeom)) {
	sizes := []int{1, 2, 3, 4, 8, 16, 17, 33}
	for _, k := range []int{1, 3, 5, 7} {
		pads := []int{k / 2}
		if k > 1 {
			pads = append(pads, 0)
		}
		if k/2-1 > 0 {
			pads = append(pads, k/2-1)
		}
		for _, pad := range pads {
			for _, stride := range []int{1, 2} {
				for _, h := range sizes {
					for _, w := range sizes {
						g := ConvGeom{InC: 2, InH: h, InW: w, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						if g.Validate() == nil {
							visit(g)
						}
					}
				}
			}
		}
	}
}

// edgePixels fills x with normal values salted with the bit patterns a copy
// or an add must carry through untouched: NaN, −0 and an infinity. One sign
// of infinity per fill, so that no sum is ever Inf − Inf or of two different
// NaNs, whose payload would be the hardware's operand-order choice.
func edgePixels(seed int64, n int, inf float32) []float32 {
	x := randMat(seed, 1, n).Data
	for i := range x {
		switch (i + int(seed)) % 11 {
		case 3:
			x[i] = float32(math.NaN())
		case 5:
			x[i] = float32(math.Copysign(0, -1))
		case 8:
			x[i] = inf
		}
	}
	return x
}

const windowSentinel = float32(-12345.5)

// TestIm2ColWindowMatchesScalar checks every element of a column window
// offset into a wider matrix against the index-by-index definition, bit for
// bit, and that nothing outside the window is written.
func TestIm2ColWindowMatchesScalar(t *testing.T) {
	windowLattice(func(g ConvGeom) {
		rows, hw, in := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
		ld, off := hw+5, 3
		x := edgePixels(int64(in+g.KH), in, float32(math.Inf(1-2*(in%2))))
		dst := make([]float32, rows*ld)
		for i := range dst {
			dst[i] = windowSentinel
		}
		Im2ColWindow(g, x, dst, ld, off)
		for r := 0; r < rows; r++ {
			c, kh, kw := r/(g.KH*g.KW), r/g.KW%g.KH, r%g.KW
			for j := 0; j < ld; j++ {
				want := windowSentinel
				if j >= off && j < off+hw {
					oh, ow := (j-off)/g.OutW(), (j-off)%g.OutW()
					ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
					want = 0
					if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
						want = x[(c*g.InH+ih)*g.InW+iw]
					}
				}
				if got := dst[r*ld+j]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%+v: dst[%d,%d] = %v (%#x), want %v (%#x)", g, r, j,
						got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	})
}

// TestCol2ImWindowMatchesScalar scatters a window of a wider column matrix
// into a non-zero image gradient and requires the bits of the per-element
// scatter, taps visited in the same (c, kh, kw, oh, ow) order.
func TestCol2ImWindowMatchesScalar(t *testing.T) {
	windowLattice(func(g ConvGeom) {
		rows, hw, in := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
		ld, off := hw+5, 3
		src := edgePixels(int64(rows*ld+g.KH), rows*ld, float32(math.Inf(1-2*(in%2))))
		got := randMat(int64(in), 1, in).Data
		want := append([]float32(nil), got...)
		Col2ImWindow(g, src, ld, off, got)
		for r := 0; r < rows; r++ {
			c, kh, kw := r/(g.KH*g.KW), r/g.KW%g.KH, r%g.KW
			for oh := 0; oh < g.OutH(); oh++ {
				for ow := 0; ow < g.OutW(); ow++ {
					ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
					if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
						want[(c*g.InH+ih)*g.InW+iw] += src[r*ld+off+oh*g.OutW()+ow]
					}
				}
			}
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v: dx[%d] = %v (%#x), want %v (%#x)", g, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}

// TestAddRowsMatchesScalar covers every tail of the vector kernel (n from 1
// past two 8-wide iterations) over strided rows, against `d[i] += v`, and
// that the gaps between rows are left alone.
func TestAddRowsMatchesScalar(t *testing.T) {
	for n := 1; n <= 21; n++ {
		for _, rows := range []int{1, 2, 5} {
			ldd, lds := n+3, n+1
			src := edgePixels(int64(n), rows*lds, float32(math.Inf(1)))
			got := edgePixels(int64(n+40), rows*ldd, float32(math.Inf(1)))
			want := append([]float32(nil), got...)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					want[r*ldd+i] += src[r*lds+i]
				}
			}
			AddRows(got, ldd, src, lds, n, rows)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d rows=%d: [%d] = %v, want %v", n, rows, i, got[i], want[i])
				}
			}
		}
	}
	AddRows(nil, 0, nil, 0, 0, 3) // empty: no access
}

// vggStages are the five conv input shapes of the CIFAR-scaled VGG16 (3×3,
// stride 1, pad 1): the geometries the pretraining step spends its im2col and
// col2im time on.
var vggStages = []ConvGeom{
	{InC: 16, InH: 32, InW: 32}, {InC: 32, InH: 16, InW: 16}, {InC: 64, InH: 8, InW: 8},
	{InC: 128, InH: 4, InW: 4}, {InC: 128, InH: 2, InW: 2},
}

func benchWindow(b *testing.B, run func(g ConvGeom, x, cols []float32)) {
	for _, g := range vggStages {
		g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW = 3, 3, 1, 1, 1, 1
		b.Run(fmt.Sprintf("c%d_%dx%d", g.InC, g.InH, g.InW), func(b *testing.B) {
			x := randMat(1, 1, g.InC*g.InH*g.InW).Data
			cols := randMat(2, 1, g.InC*9*g.InH*g.InW).Data
			b.SetBytes(int64(4 * len(cols)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(g, x, cols)
			}
		})
	}
}

// BenchmarkIm2ColWindow reports GB/s of column matrix written.
func BenchmarkIm2ColWindow(b *testing.B) {
	benchWindow(b, func(g ConvGeom, x, cols []float32) { Im2ColWindow(g, x, cols, g.InH*g.InW, 0) })
}

// BenchmarkCol2ImWindow reports GB/s of column matrix read.
func BenchmarkCol2ImWindow(b *testing.B) {
	benchWindow(b, func(g ConvGeom, x, cols []float32) {
		clear(x) // keep the accumulated image finite
		Col2ImWindow(g, cols, g.InH*g.InW, 0, x)
	})
}
