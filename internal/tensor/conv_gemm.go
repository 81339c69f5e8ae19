package tensor

import "fmt"

// Implicit-GEMM convolution: dst = wmat(OutC × C·KH·KW) @ im2col(g, x)
// without ever materializing the [C·KH·KW, OutH·OutW] column matrix. The
// blocked driver (gemm_driver.go) already walks B in KC×NC tiles; the conv is
// one more B source for it. On the asm path each tile's 16-wide strips are
// generated from the image DIRECTLY in packed panel layout — the fused
// im2col→pack the materialized path spends most of a batch-1 conv on (write
// cols, read cols, write panel) collapses to a single generate-into-panel
// write. The ragged column tail (< 16 columns) is generated densely and
// consumed by the portable kernel, as is the whole product on targets without
// the asm micro-kernel.
//
// Generated values are copies of exactly the elements Im2Col would produce
// and the schedule is the driver's, so the output is bit-identical to
// MatMulSerialInto(dst, wmat, im2col(g, x)). TestConvMulMatchesIm2Col pins
// this across odd shapes, strides, and pads.

// ConvGemmScratch returns the float32 scratch length ConvMulSerialInto
// needs (the driver's generate-into buffer).
func ConvGemmScratch() int { return driverScratch(true, 0) }

// ConvMulSerialInto computes dst = wmat @ im2col(g, x) for one image x
// (length ≥ InC·InH·InW), with wmat [OutC, InC·KH·KW] and dst
// [OutC, OutH·OutW]. Strictly serial, zero heap allocations; scratch needs
// ConvGemmScratch() floats.
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
	if len(scratch) < ConvGemmScratch() {
		panic(fmt.Sprintf("tensor: ConvMul scratch %d < ConvGemmScratch %d", len(scratch), ConvGemmScratch()))
	}
	src := gemmB{kind: bConv, n: nOut, g: g, x: x, xRows: g.InH}
	gemmDrive(dst.Data, nOut, wmat.Data, kdim, m, &src, 0, nOut, 0, kdim, scratch, true)
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
	if g.StrideW == 1 && outW%gemmNR == 0 {
		// Every strip lies inside one output row: the wide specialization
		// hoists the per-p bounds work out of the strip loop, which roughly
		// halves generation cost on VGG-shaped maps.
		convPackStripsWide(g, x, xRow0, xRows, panel, pb, pe, jb, nFull)
		return
	}
	kc := pe - pb
	khw := g.KH * g.KW
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
		// (c, kh, kw) tracks p incrementally — no divisions in the p loop.
		c := pb / khw
		r := pb % khw
		kh := r / g.KW
		kw := r % g.KW
		for p := pb; p < pe; p++ {
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
			kw++
			if kw == g.KW {
				kw = 0
				kh++
				if kh == g.KH {
					kh = 0
					c++
				}
			}
		}
	}
}

// packTables is convPackStripsWide's per-p precomputation: for im2col row
// p = pb+q, rowBase[q] is the x offset of output column (0, 0)'s source
// element (before the oh·StrideH·InW term), ihOff[q] the input-row offset
// (ih = oh·StrideH + ihOff), and [owLo, owHi) the in-bounds ow span of p's
// kw. Sized for one K block (kc ≤ gemmKC), so it lives on the stack.
type packTables struct {
	rowBase, ihOff, owLo, owHi [gemmKC]int32
}

// convPackStripsWide is convPackStrips for StrideW == 1 and outW a multiple
// of gemmNR: every 16-column strip then falls inside a single output row.
// Loops run strip-outer / p-inner — the opposite nesting from the general
// path — so panel writes are sequential 64-byte rows instead of one row per
// strided strip, and the per-p geometry collapses to four table lookups.
// Identical output to the general path.
func convPackStripsWide(g ConvGeom, x []float32, xRow0, xRows int, panel []float32, pb, pe, jb, nFull int) {
	outW := g.OutW()
	kc := pe - pb
	khw := g.KH * g.KW
	rLo, rHi := max(0, xRow0), min(g.InH, xRow0+xRows)
	var tab packTables
	c := pb / khw
	r := pb % khw
	kh := r / g.KW
	kw := r % g.KW
	for q := 0; q < kc; q++ {
		tab.rowBase[q] = int32((c*xRows-xRow0+kh-g.PadH)*g.InW + kw - g.PadW)
		tab.ihOff[q] = int32(kh - g.PadH)
		tab.owLo[q] = int32(max(0, g.PadW-kw))
		tab.owHi[q] = int32(min(outW, g.InW+g.PadW-kw))
		kw++
		if kw == g.KW {
			kw = 0
			kh++
			if kh == g.KH {
				kh = 0
				c++
			}
		}
	}
	stripLen := kc * gemmNR
	for s := 0; s*gemmNR < nFull; s++ {
		j0 := jb + s*gemmNR
		oh := j0 / outW
		ow0 := j0 - oh*outW
		packOneStrip(panel[s*stripLen:s*stripLen+stripLen], x, &tab, kc,
			int32(oh*g.StrideH), int32(ow0), int32(oh*g.StrideH*g.InW+ow0), int32(rLo), int32(rHi))
	}
}

// packOneStrip fills one 16-column strip (kc rows of 16 floats, written
// sequentially) for the output row at ihBase = oh·StrideH, columns
// [ow0, ow0+16). Kept out of line so the hot loop gets its own register
// allocation instead of sharing the generator's spill-heavy frame.
//
//go:noinline
func packOneStrip(strip, x []float32, tab *packTables, kc int, ihBase, ow0, base, rLo, rHi int32) {
	for q := 0; q < kc; q++ {
		row := strip[q*gemmNR : q*gemmNR+gemmNR]
		ih := ihBase + tab.ihOff[q]
		if ih < rLo || ih >= rHi {
			clear(row)
			continue
		}
		l := max(tab.owLo[q], ow0)
		h := min(tab.owHi[q], ow0+gemmNR)
		src := int(tab.rowBase[q] + base)
		if h-l == gemmNR {
			// Copy via a local temporary: the compiler then emits vector
			// register moves instead of a memmove call (it cannot prove the
			// direct copy's operands don't overlap).
			t := *(*[gemmNR]float32)(x[src:])
			*(*[gemmNR]float32)(row) = t
		} else {
			packPartialRow(row, x, src-int(ow0), int(ow0), int(l), int(h))
		}
	}
}

// packPartialRow fills one 16-float strip row whose columns [ow0, ow0+16)
// overlap the in-bounds span [lo, hi) only partially: zeros outside, copies
// of x[src+ow] inside — the same values the general path produces.
func packPartialRow(row []float32, x []float32, src, ow0, lo, hi int) {
	l := min(max(lo, ow0), ow0+gemmNR)
	h := max(min(hi, ow0+gemmNR), l)
	clear(row[:l-ow0])
	if h > l {
		copy(row[l-ow0:h-ow0], x[src+l:src+h])
	}
	clear(row[h-ow0 : gemmNR])
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
	khw := g.KH * g.KW
	rLo, rHi := max(0, xRow0), min(g.InH, xRow0+xRows)
	c := pb / khw
	r := pb % khw
	kh := r / g.KW
	kw := r % g.KW
	for p := pb; p < pe; p++ {
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
		kw++
		if kw == g.KW {
			kw = 0
			kh++
			if kh == g.KH {
				kh = 0
				c++
			}
		}
	}
}
