package tensor

import (
	"math/rand"
	"testing"
)

// TestConvMulMatchesIm2Col pins the implicit-GEMM conv bit-identical to the
// materialized im2col + MatMulSerialInto path across odd geometries: strides
// 1–3, pads 0–2, kernel sizes through 5, spatial extents and channel counts
// that exercise non-multiple-of-16 tile widths, KC-crossing K dims, and
// row-tail OutC values.
func TestConvMulMatchesIm2Col(t *testing.T) {
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			rng := rand.New(rand.NewSource(53))
			geoms := []ConvGeom{
				{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
				{InC: 3, InH: 5, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
				{InC: 2, InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
				{InC: 4, InH: 11, InW: 6, KH: 5, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 0},
				{InC: 5, InH: 7, InW: 13, KH: 3, KW: 5, StrideH: 3, StrideW: 2, PadH: 0, PadW: 2},
				{InC: 7, InH: 17, InW: 17, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
				{InC: 1, InH: 33, InW: 33, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
				{InC: 31, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
				{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
				{InC: 6, InH: 10, InW: 31, KH: 2, KW: 2, StrideH: 2, StrideW: 3, PadH: 1, PadW: 1},
			}
			for gi, g := range geoms {
				if err := g.Validate(); err != nil {
					t.Fatalf("geom %d: %v", gi, err)
				}
				for _, outC := range []int{1, 3, 4, 17} {
					kdim := g.InC * g.KH * g.KW
					nOut := g.OutH() * g.OutW()
					x := make([]float32, g.InC*g.InH*g.InW)
					for i := range x {
						x[i] = rng.Float32()*2 - 1
					}
					wmat := New(outC, kdim)
					for i := range wmat.Data {
						wmat.Data[i] = rng.Float32()*2 - 1
					}

					cols := New(kdim, nOut)
					Im2Col(g, x, cols)
					want := New(outC, nOut)
					MatMulSerialInto(want, wmat, cols, make([]float32, GemmScratch()))

					got := New(outC, nOut)
					ConvMulSerialInto(got, wmat, g, x, make([]float32, ConvGemmScratch()))

					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("geom %d outC %d: element %d = %v, want %v (implicit vs im2col)",
								gi, outC, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		})
	}
}

// TestIm2ColTileMatchesIm2Col checks the tile generator alone against full
// Im2Col over every (KC, NC)-aligned and deliberately misaligned subrange.
func TestIm2ColTileMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := ConvGeom{InC: 3, InH: 13, InW: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 2}
	kdim := g.InC * g.KH * g.KW
	nOut := g.OutH() * g.OutW()
	x := make([]float32, g.InC*g.InH*g.InW)
	for i := range x {
		x[i] = rng.Float32()
	}
	cols := New(kdim, nOut)
	Im2Col(g, x, cols)
	tile := make([]float32, kdim*nOut)
	for _, r := range [][4]int{
		{0, kdim, 0, nOut},
		{0, kdim, 7, nOut - 3},
		{5, 19, 0, 16},
		{2, 3, nOut - 1, nOut},
		{0, 9, 1, 2},
	} {
		pb, pe, jb, je := r[0], r[1], r[2], r[3]
		ld := je - jb
		sub := tile[:(pe-pb)*ld]
		for i := range sub {
			sub[i] = -999
		}
		im2colTile(g, x, 0, g.InH, sub, ld, pb, pe, jb, je)
		for p := pb; p < pe; p++ {
			for j := jb; j < je; j++ {
				if got, want := sub[(p-pb)*ld+j-jb], cols.Data[p*nOut+j]; got != want {
					t.Fatalf("tile [%d:%d)x[%d:%d) element (%d,%d) = %v, want %v", pb, pe, jb, je, p, j, got, want)
				}
			}
		}
	}
}
