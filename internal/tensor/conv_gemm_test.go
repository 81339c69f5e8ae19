package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// wideConvGeoms is the shape table of the conv's offset form (stride 1, OutW
// a multiple of 16): channel counts through two K blocks (32·9 = 288 >
// gemmKC), every strip count a row has at the zoo's widths, and kernels with
// same-size padding, with none, and one row tall.
// wideConvOutCs goes with it: leftover rows alone (1, 3), one full group (4),
// groups only (8), groups plus leftover rows (18).
func wideConvGeoms() []ConvGeom {
	var gs []ConvGeom
	for _, inC := range []int{1, 3, 16, 32} {
		for _, outW := range []int{16, 32, 48, 96} {
			for _, k := range []struct{ kh, kw, ph, pw int }{{3, 3, 1, 1}, {5, 5, 2, 2}, {3, 3, 0, 0}, {1, 3, 0, 0}} {
				gs = append(gs, ConvGeom{InC: inC, InH: 7, InW: outW + k.kw - 1 - 2*k.pw,
					KH: k.kh, KW: k.kw, StrideH: 1, StrideW: 1, PadH: k.ph, PadW: k.pw})
			}
		}
	}
	return gs
}

var wideConvOutCs = []int{1, 3, 4, 8, 18}

// saltNonFinite overwrites a few pixels of x with NaN and ±Inf: a conv must
// put non-finite values in exactly the outputs im2col puts them in, which a
// path that skipped padding taps instead of multiplying zeros would not.
func saltNonFinite(rng *rand.Rand, x []float32) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		x[rng.Intn(len(x))] = v
	}
}

// TestConvMulMatchesIm2Col pins the implicit-GEMM conv bit-identical to the
// materialized im2col + MatMulSerialInto path across odd geometries: strides
// 1–3, pads 0–2, kernel sizes through 5, spatial extents and channel counts
// that exercise non-multiple-of-16 tile widths, KC-crossing K dims, and
// row-tail OutC values; then the offset form's wide-shape table with
// non-finite pixels, compared by bits.
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
			nOdd := len(geoms)
			geoms = append(geoms, wideConvGeoms()...)
			for gi, g := range geoms {
				if err := g.Validate(); err != nil {
					t.Fatalf("geom %d: %v", gi, err)
				}
				outCs := []int{1, 3, 4, 17}
				if gi >= nOdd {
					outCs = wideConvOutCs
				}
				for _, outC := range outCs {
					kdim := g.InC * g.KH * g.KW
					nOut := g.OutH() * g.OutW()
					x := make([]float32, g.InC*g.InH*g.InW)
					for i := range x {
						x[i] = rng.Float32()*2 - 1
					}
					if gi >= nOdd {
						saltNonFinite(rng, x)
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
					ConvMulSerialInto(got, wmat, g, x, make([]float32, ConvGemmScratch(g)))

					for i := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("geom %d outC %d: element %d = %v, want %v (implicit vs im2col)",
								gi, outC, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		})
	}
}

// TestConvWindowBounds computes, for every wide shape and a top, an interior
// and a bottom row window, the furthest float the offset kernels can read —
// the last strip's base plus the largest table offset plus the 16 floats of
// one load — and requires it to be the last float of the scratch the size
// functions return: never past it, and no float of slack either.
func TestConvWindowBounds(t *testing.T) {
	ran := runWithAsm(true, func() {
		for gi, g := range wideConvGeoms() {
			outH, outW, kdim := g.OutH(), g.OutW(), g.InC*g.KH*g.KW
			x := make([]float32, g.InC*g.InH*g.InW)
			for _, rows := range [][2]int{{0, 2}, {1, outH - 1}, {outH - 1, outH}, {0, outH}} {
				or0, or1 := rows[0], rows[1]
				scratch := make([]float32, ConvTileScratch(g, 1, or1-or0))
				if or0 == 0 && or1 == outH && len(scratch) != ConvGemmScratch(g) {
					t.Fatalf("geom %d: full-map tile scratch %d != ConvGemmScratch %d", gi, len(scratch), ConvGemmScratch(g))
				}
				src := convB(g, x, 0, g.InH, scratch, or0, or1)
				far := 0
				var offs [gemmKC]int32
				for pb := 0; pb < kdim; pb += gemmKC {
					pe := min(pb+gemmKC, kdim)
					bs := src.windowStrips(&offs, pb, pe, or1*outW-gemmNR)
					for _, o := range offs[:pe-pb] {
						far = max(far, len(scratch)-len(bs.x)+bs.ow+int(o)+gemmNR)
					}
				}
				if far != len(scratch) {
					t.Errorf("geom %d %+v rows [%d, %d): kernels read up to float %d of a %d-float scratch", gi, g, or0, or1, far, len(scratch))
				}
			}
		}
	})
	if !ran {
		t.Skip("no AVX2 kernel on this machine")
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
