package tensor

import "fmt"

// Implicit-GEMM convolution: dst = wmat(OutC × C·KH·KW) @ im2col(g, x)
// without ever materializing the [C·KH·KW, OutH·OutW] column matrix. The
// blocked driver (gemm_driver.go) already walks B in KC×NC tiles; the conv is
// one more B source for it, and answers the driver in one of two forms.
//
// Offset form (ConvOffsetForm: asm build, stride 1, OutW a multiple of 16 —
// every conv of the VGG-shaped extractors and every 32- or 96-wide stem): a
// 16-column strip is 16 consecutive pixels of one image row, shifted by
// (kh, kw) for each K step, so nothing needs packing — the offset kernels
// take a base address per strip and one offset per K step. What they need is
// that out-of-image taps read zeros, so the rows the requested output rows
// read are copied once per call into a zero-padded window
// [InC, rows+KH−1, InW+2·PadW] in driver scratch (padWindow), and
// offs[p] = (c·winH + kh)·winW + kw. The window is 1/(KH·KW) of the im2col
// matrix the packed form writes and reads back; at OutC ≤ 32 a packed strip
// is reused by at most 8 kernel calls and that copy never amortized.
//
// Packed form (every other geometry): each tile's 16-wide strips are
// generated from the image directly in packed panel layout (convPackStrips);
// the ragged column tail (< 16 columns) is generated densely and consumed by
// the portable kernel, as is the whole product on targets without the asm
// micro-kernel (im2colTile).
//
// Both forms feed the kernels exactly the values Im2Col would produce — image
// elements, and zeros at padding positions that are multiplied like any other
// value, never skipped — on the driver's one schedule, so the output is
// bit-identical to MatMulSerialInto(dst, wmat, im2col(g, x)), non-finite
// pixels and weights included. TestConvMulMatchesIm2Col pins this across odd
// shapes, strides, and pads.

// ConvOffsetForm reports whether convs of geometry g run in offset form —
// the form that copies no columns, so there is no layer size below which
// materializing Im2Col is cheaper (what nn's size gate asks).
func ConvOffsetForm(g ConvGeom) bool {
	return useGemmAsm && g.StrideH == 1 && g.StrideW == 1 && g.OutW()%gemmNR == 0
}

// convScratch is the scratch length of a conv computing outRows output rows
// per call: the padded window in offset form, else the driver's generate-into
// buffer plus a spill buffer of spillRows rows.
func convScratch(g ConvGeom, outRows, spillRows int) int {
	if ConvOffsetForm(g) {
		return g.InC * (outRows + g.KH - 1) * (g.InW + 2*g.PadW)
	}
	return driverScratch(true, spillRows)
}

// ConvGemmScratch returns the float32 scratch length ConvMulSerialInto
// needs for geometry g.
func ConvGemmScratch(g ConvGeom) int { return convScratch(g, g.OutH(), 0) }

// ConvMulSerialInto computes dst = wmat @ im2col(g, x) for one image x
// (length ≥ InC·InH·InW), with wmat [OutC, InC·KH·KW] and dst
// [OutC, OutH·OutW]. Strictly serial, zero heap allocations; scratch needs
// ConvGemmScratch(g) floats.
func ConvMulSerialInto(dst, wmat *Tensor, g ConvGeom, x []float32, scratch []float32) {
	kdim := g.InC * g.KH * g.KW
	nOut := g.OutH() * g.OutW()
	if wmat.Rank() != 2 || wmat.Shape[1] != kdim {
		panic(fmt.Sprintf("tensor: ConvMul weight shape %v, want [*, %d]", wmat.Shape, kdim))
	}
	m := wmat.Shape[0]
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != nOut {
		panic(fmt.Sprintf("tensor: ConvMul dst shape %v, want [%d %d]", dst.Shape, m, nOut))
	}
	if need := ConvGemmScratch(g); len(scratch) < need {
		panic(fmt.Sprintf("tensor: ConvMul scratch %d < ConvGemmScratch %d", len(scratch), need))
	}
	src := convB(g, x, 0, g.InH, scratch, 0, g.OutH())
	gemmDrive(dst.Data, nOut, wmat.Data, kdim, m, &src, 0, nOut, 0, kdim, scratch, true)
}

// convB describes im2col(g, x), for a product over output rows [or0, or1), as
// a driver source: in offset form where the geometry has one, its window
// written to scratch here, else in packed form.
func convB(g ConvGeom, x []float32, xRow0, xRows int, scratch []float32, or0, or1 int) gemmB {
	src := gemmB{kind: bConv, n: g.OutH() * g.OutW(), g: g, x: x, xRow0: xRow0, xRows: xRows}
	if ConvOffsetForm(g) {
		src.padWindow(scratch, or0, or1)
	}
	return src
}

// padWindow puts the source in offset form for output rows [or0, or1) by
// copying the input rows they read into scratch as [InC, winH, InW+2·PadW],
// zero-padded: PadW zeros either side of every row, all-zero rows above and
// below the image. Padding decisions use the full-image geometry; rows
// outside x's window are zeros too, as in convPackStrips.
func (s *gemmB) padWindow(scratch []float32, or0, or1 int) {
	g := s.g
	hp, wp := or1-or0+g.KH-1, g.InW+2*g.PadW
	s.win, s.winH, s.winRow0 = scratch[:g.InC*hp*wp], hp, or0
	// Window rows [rLo, rHi) hold image rows that x has, from ih0 on.
	top := or0 - g.PadH
	rLo := min(max(max(0, s.xRow0)-top, 0), hp)
	rHi := max(min(min(g.InH, s.xRow0+s.xRows)-top, hp), rLo)
	ih0 := top + rLo - s.xRow0
	inW, padW := g.InW, g.PadW
	for c := 0; c < g.InC; c++ {
		plane := s.win[c*hp*wp:][:hp*wp]
		clear(plane[:rLo*wp])
		clear(plane[rHi*wp:])
		src := s.x[(c*s.xRows+ih0)*inW:]
		for r := rLo; r < rHi; r++ {
			row := plane[r*wp:][:wp]
			copy(row[padW:padW+inW], src[(r-rLo)*inW:])
			// Plain stores: the side padding is a float or two, less than a
			// clear's call.
			for i := 0; i < padW; i++ {
				row[i], row[padW+inW+i] = 0, 0
			}
		}
	}
}

// convTap walks im2col row indices p = (c·KH + kh)·KW + kw in order: one
// division pair at the start, a carry chain per step. Three fields passed by
// value, so the walker stays in registers inside its callers' loops.
type convTap struct{ c, kh, kw int }

// tapAt returns the walker standing on im2col row pb of a KH × KW kernel.
func tapAt(pb, nh, nw int) convTap {
	r := pb % (nh * nw)
	return convTap{c: pb / (nh * nw), kh: r / nw, kw: r % nw}
}

// next returns the walker on row p+1.
func (t convTap) next(nh, nw int) convTap {
	t.kw++
	if t.kw == nw {
		t.kw = 0
		t.kh++
		if t.kh == nh {
			t.kh = 0
			t.c++
		}
	}
	return t
}

// windowStrips describes im2col rows [pb, pe) of the strips from column j0 on
// as addresses into the padded window: offs[p−pb] is the distance from a
// column's (c, kh, kw) = (0, 0, 0) tap to its tap p.
func (s *gemmB) windowStrips(offs *[gemmKC]int32, pb, pe, j0 int) bStrips {
	g, outW := s.g, s.g.OutW()
	wp := g.InW + 2*g.PadW
	t := tapAt(pb, g.KH, g.KW)
	for q := range offs[:pe-pb] {
		offs[q] = int32((t.c*s.winH+t.kh)*wp + t.kw)
		t = t.next(g.KH, g.KW)
	}
	return bStrips{x: s.win[(j0/outW-s.winRow0)*wp:], offs: offs, ow: j0 % outW, outW: outW, ldx: wp}
}

// convPackStrips generates im2col rows [pb, pe) × columns [jb, jb+nFull) —
// a whole number of 16-column strips — straight into panel in packPanel16's
// strip-major, p-major layout. Values match Im2Col exactly: zeros at padding
// positions, copies of x elsewhere. This is the fused im2col→pack: the
// column matrix underneath is never materialized.
//
// x may hold a row window of the image instead of the full planes: it must
// contain input rows [xRow0, xRow0+xRows) of each channel, packed with a
// channel stride of xRows·InW. A full image is (xRow0, xRows) = (0, InH).
// Padding decisions still use the full-image geometry, so the generated
// values are independent of the window as long as it covers every in-bounds
// row the requested columns read. Rows outside the window generate zeros —
// columns that reach past the window (the unowned lanes of a spill strip)
// get well-defined garbage instead of faulting, and their lanes are never
// copied out.
func convPackStrips(g ConvGeom, x []float32, xRow0, xRows int, panel []float32, pb, pe, jb, nFull int) {
	outW := g.OutW()
	kc := pe - pb
	rLo, rHi := max(0, xRow0), min(g.InH, xRow0+xRows)
	// Per-strip output-row segments: local column spans [segLo, segHi) that
	// fall on output row segOh. A strip has at most 16 of them (outW = 1).
	var segLo, segHi, segOh [gemmNR]int
	for js := 0; js < nFull; js += gemmNR {
		j0 := jb + js
		nseg := 0
		for lo := j0; lo < j0+gemmNR; {
			oh := lo / outW
			hi := (oh + 1) * outW
			if hi > j0+gemmNR {
				hi = j0 + gemmNR
			}
			segLo[nseg], segHi[nseg], segOh[nseg] = lo-j0, hi-j0, oh
			nseg++
			lo = hi
		}
		strip := panel[js*kc:]
		t := tapAt(pb, g.KH, g.KW)
		for p := pb; p < pe; p++ {
			c, kh, kw := t.c, t.kh, t.kw
			chanBase := (c*xRows - xRow0) * g.InW
			row := strip[(p-pb)*gemmNR : (p-pb)*gemmNR+gemmNR]
			for si := 0; si < nseg; si++ {
				lo, hi, oh := segLo[si], segHi[si], segOh[si]
				seg := row[lo:hi]
				ih := oh*g.StrideH - g.PadH + kh
				if ih < rLo || ih >= rHi {
					clear(seg)
				} else if srcBase := chanBase + ih*g.InW; g.StrideW == 1 {
					// In-bounds iw = ow − PadW + kw on [owLo, owHi), clipped
					// to this segment's ow window [j0+lo−base, j0+hi−base).
					owLo := max(0, g.PadW-kw)
					owHi := min(outW, g.InW+g.PadW-kw)
					base := oh * outW
					l := min(max(owLo, j0+lo-base), j0+hi-base)
					h := max(min(owHi, j0+hi-base), l)
					if h-l == gemmNR {
						// The whole strip row is one in-bounds span — the hot
						// case on interior columns. A fixed-size copy compiles
						// to two vector moves instead of a memmove call, which
						// at 16 floats a row is most of the generation cost.
						*(*[gemmNR]float32)(row) = *(*[gemmNR]float32)(x[srcBase+l-g.PadW+kw:])
						continue
					}
					clear(row[lo : base+l-j0])
					if h > l {
						s := srcBase + l - g.PadW + kw
						copy(row[base+l-j0:base+h-j0], x[s:s+h-l])
					}
					clear(row[base+h-j0 : hi])
				} else {
					ow0 := j0 + lo - oh*outW
					for ii := range seg {
						iw := (ow0+ii)*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							seg[ii] = 0
						} else {
							seg[ii] = x[srcBase+iw]
						}
					}
				}
			}
			t = t.next(g.KH, g.KW)
		}
	}
}

// im2colTile generates rows [pb, pe) × columns [jb, je) of the im2col matrix
// into tile (row-major, leading dimension ld = je−jb). Row p corresponds to
// (c, kh, kw) = (p / (KH·KW), (p / KW) mod KH, p mod KW); column j to output
// location (oh, ow) = (j / OutW, j mod OutW). Values match Im2Col exactly:
// zeros at padding positions, copies of x elsewhere. x may hold a row window
// of the image, exactly as in convPackStrips: rows [xRow0, xRow0+xRows) of
// each channel with channel stride xRows·InW; rows outside the window
// generate zeros.
func im2colTile(g ConvGeom, x []float32, xRow0, xRows int, tile []float32, ld, pb, pe, jb, je int) {
	outW := g.OutW()
	rLo, rHi := max(0, xRow0), min(g.InH, xRow0+xRows)
	t := tapAt(pb, g.KH, g.KW)
	for p := pb; p < pe; p++ {
		c, kh, kw := t.c, t.kh, t.kw
		chanBase := (c*xRows - xRow0) * g.InW
		row := tile[(p-pb)*ld : (p-pb)*ld+ld]
		for j0 := jb; j0 < je; {
			oh := j0 / outW
			j1 := (oh + 1) * outW
			if j1 > je {
				j1 = je
			}
			seg := row[j0-jb : j1-jb]
			ih := oh*g.StrideH - g.PadH + kh
			if ih < rLo || ih >= rHi {
				clear(seg)
				j0 = j1
				continue
			}
			srcBase := chanBase + ih*g.InW
			if g.StrideW == 1 {
				// In-bounds iw = ow − PadW + kw on [owLo, owHi), clipped to
				// this segment's [j0−oh·outW, j1−oh·outW) window.
				owLo := max(0, g.PadW-kw)
				owHi := min(outW, g.InW+g.PadW-kw)
				base := oh * outW
				lo := min(max(owLo, j0-base), j1-base)
				hi := max(min(owHi, j1-base), lo)
				clear(row[j0-jb : base+lo-jb])
				if hi > lo {
					s := srcBase + lo - g.PadW + kw
					copy(row[base+lo-jb:base+hi-jb], x[s:s+hi-lo])
				}
				clear(row[base+hi-jb : j1-jb])
				j0 = j1
				continue
			}
			for ji := range seg {
				ow := j0 - oh*outW + ji
				iw := ow*g.StrideW - g.PadW + kw
				if iw < 0 || iw >= g.InW {
					seg[ji] = 0
				} else {
					seg[ji] = x[srcBase+iw]
				}
			}
			j0 = j1
		}
		t = t.next(g.KH, g.KW)
	}
}
