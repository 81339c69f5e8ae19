package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvMulRowsMatchesSerial pins the row-tiled implicit-GEMM conv
// bit-identical to ConvMulSerialInto across randomized geometry (stride,
// pad, kernel, image size, channels), randomized ragged tile splits
// (including single-row tiles, which make the halo larger than the tile for
// every kernel taller than the stride), and minimal input row windows; then
// across the offset form's wide-shape table, cut into tiles of one to two
// rows so every shape has a window on the top edge, on the bottom edge and
// on neither, with non-finite pixels. Each tile is checked both written into
// a tile buffer with a padded leading dimension and written directly into
// the full map at its row offset.
func TestConvMulRowsMatchesSerial(t *testing.T) {
	type convCase struct {
		g         ConvGeom
		outC      int
		maxStep   int // tallest tile of the ragged split
		nonFinite bool
	}
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			rng := rand.New(rand.NewSource(61))
			var cases []convCase
			for trial := 0; trial < 60; trial++ {
				g := ConvGeom{
					InC:     1 + rng.Intn(5),
					InH:     3 + rng.Intn(15),
					InW:     3 + rng.Intn(15),
					KH:      1 + rng.Intn(4),
					KW:      1 + rng.Intn(4),
					StrideH: 1 + rng.Intn(3),
					StrideW: 1 + rng.Intn(3),
					PadH:    rng.Intn(3),
					PadW:    rng.Intn(3),
				}
				if g.Validate() != nil {
					continue
				}
				cases = append(cases, convCase{g: g, outC: 1 + rng.Intn(20), maxStep: g.OutH()})
			}
			for gi, g := range wideConvGeoms() {
				cases = append(cases, convCase{g: g, outC: wideConvOutCs[gi%len(wideConvOutCs)], maxStep: 2, nonFinite: true})
			}
			for trial, tc := range cases {
				g, outC := tc.g, tc.outC
				kdim := g.InC * g.KH * g.KW
				outH, outW := g.OutH(), g.OutW()
				nOut := outH * outW
				x := make([]float32, g.InC*g.InH*g.InW)
				for i := range x {
					x[i] = rng.Float32()*2 - 1
				}
				if tc.nonFinite {
					saltNonFinite(rng, x)
				}
				wmat := New(outC, kdim)
				for i := range wmat.Data {
					wmat.Data[i] = rng.Float32()*2 - 1
				}
				want := New(outC, nOut)
				ConvMulSerialInto(want, wmat, g, x, make([]float32, ConvGemmScratch(g)))

				scratch := make([]float32, ConvTileScratch(g, outC, tc.maxStep))
				direct := New(outC, nOut)
				for i := range direct.Data {
					direct.Data[i] = -999
				}
				for or0 := 0; or0 < outH; {
					or1 := min(or0+1+rng.Intn(tc.maxStep), outH)
					rows := or1 - or0
					// Minimal input row window for conv rows [or0, or1).
					inLo := min(max(0, or0*g.StrideH-g.PadH), g.InH)
					inHi := min(g.InH, (or1-1)*g.StrideH-g.PadH+g.KH)
					inHi = max(inHi, inLo)
					win := make([]float32, g.InC*(inHi-inLo)*g.InW)
					for c := 0; c < g.InC; c++ {
						copy(win[c*(inHi-inLo)*g.InW:(c+1)*(inHi-inLo)*g.InW],
							x[(c*g.InH+inLo)*g.InW:(c*g.InH+inHi)*g.InW])
					}
					// Tile buffer, rows 3 floats longer than the tile.
					ldd := rows*outW + 3
					tile := make([]float32, outC*ldd)
					for i := range tile {
						tile[i] = -999
					}
					ConvMulRowsInto(tile, ldd, 0, wmat, g, win, inLo, inHi-inLo, or0, or1, scratch)
					for oc := 0; oc < outC; oc++ {
						for j := or0 * outW; j < or1*outW; j++ {
							if got, w := tile[oc*ldd+j-or0*outW], want.Data[oc*nOut+j]; math.Float32bits(got) != math.Float32bits(w) {
								t.Fatalf("trial %d g=%+v outC=%d tile rows [%d,%d): (%d,%d) = %v, want %v",
									trial, g, outC, or0, or1, oc, j, got, w)
							}
						}
						for j, v := range tile[oc*ldd+rows*outW : (oc+1)*ldd] {
							if v != -999 {
								t.Fatalf("trial %d g=%+v outC=%d tile rows [%d,%d): wrote %v %d past row %d",
									trial, g, outC, or0, or1, v, j, oc)
							}
						}
					}
					// Direct full-map write at the tile's row offset.
					ConvMulRowsInto(direct.Data, nOut, or0*outW, wmat, g, win, inLo, inHi-inLo, or0, or1, scratch)
					or0 = or1
				}
				for i := range want.Data {
					if math.Float32bits(direct.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("trial %d g=%+v outC=%d direct element %d = %v, want %v",
							trial, g, outC, i, direct.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}
