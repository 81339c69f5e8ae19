package tensor

import "fmt"

// The training conv products with the image read in place: the A-offset
// operand of the driver (gemmA) pointed at a zero-padded copy of the images,
// [b, InC, hp, wp] with hp × wp = depthwiseWindow(g), so that every im2col
// value — image element or padding zero — is one window element:
//
//	cols[(c·KH + kh)·KW + kw, s·HW + oh·OutW + ow]
//	    = win[s·InC·hp·wp + (c·hp + kh)·wp + kw + oh·StrideH·wp + ow·StrideW]
//
// a tap offset plus a position offset (tapOffs, posOffs). Whichever of the
// two indexes the operand's rows, the other indexes K, and the A-offset
// kernels read cols without it ever being written.
//
//   - Forward in rows form (ConvRowsSerialInto): Yᵀ = patches·Wᵀ, output
//     positions as rows, W packed once per call as the strips of Wᵀ
//     (PackConvWeights). An output element (position j, channel oc) keeps the
//     chain it has in the column product W·cols — same K blocks, same FMA per
//     step, a·b = b·a — as long as it keeps its kernel class. In W·cols that
//     class is fixed by its column j: strip for j < PanelStripCols(columns),
//     ragged after. So the rows form needs OutC a whole number of strips (every
//     channel column of Wᵀ a strip), and computes the rows that were ragged
//     columns on the ragged kernel, from a dense copy of their patches.
//   - The weight gradient (ConvWeightGradSerialInto): dWᵀ += cols·Gᵀ, taps as
//     rows, reduction over positions — the column product's own roles, with
//     cols read in place.
//
// The input gradient's dcols = Wᵀ·G reads Wᵀ in place from W
// (MatMulATSerialInto) and stays a column matrix: Col2ImWindow's tap-order
// sum fixes dx's bits.

// ConvRowsForm reports whether a conv of geometry g with outC output channels
// computes its forward in rows form: every conv not in offset form whose
// output channels are whole strips. The portable build has no strips, so
// there none does.
func ConvRowsForm(g ConvGeom, outC int) bool {
	return !ConvOffsetForm(g) && outC > 0 && PanelStripCols(outC) == outC
}

// PackConvWeights packs the weights wmat [OutC, kdim] of a conv in rows form
// as the strips of Wᵀ, in the layout prepacked panels keep (PrepackPanels of
// Wᵀ): kdim·OutC floats of dst. Once per forward call; every product of the
// call reads them in place.
func PackConvWeights(dst []float32, wmat *Tensor) {
	outC, kdim := wmat.Shape[0], wmat.Shape[1]
	if PanelStripCols(outC) != outC {
		panic(fmt.Sprintf("tensor: PackConvWeights with %d output channels, not whole strips", outC))
	}
	dst = dst[:kdim*outC]
	for jb := 0; jb < outC; jb += gemmNC {
		w16 := min(gemmNC, outC-jb)
		for pb := 0; pb < kdim; pb += gemmKC {
			packPanel16T(dst[kdim*jb+pb*w16:], wmat.Data, kdim, pb, min(pb+gemmKC, kdim), jb, jb+w16)
		}
	}
}

// ConvRowsScratch returns the float32 scratch ConvRowsSerialInto needs for b
// images of geometry g and outC output channels: their padded window, the
// [b·HW, OutC] product, the two offset tables, and a ragged group's patches
// and product.
func ConvRowsScratch(g ConvGeom, outC, b int) int {
	rows := b * g.OutH() * g.OutW()
	return windowLen(g, b) + rows*outC + rows + g.InC*g.KH*g.KW + (gemmNR-1)*(gemmKC+outC)
}

// ConvRowsSerialInto computes y = W ⊛ x (+ bias) for b images of x into y
// ([b, OutC, OutH·OutW]) in rows form, strictly serially. wmat is W
// [OutC, kdim], packed is PackConvWeights(wmat), bias is nil or OutC floats.
// stack is the number of images the column product it reproduces stacks side
// by side (Im2ColWindow at offsets s·HW): y gets, bit for bit, the output of
// MatMulSerialInto(out, wmat, cols) over each run of stack images from x's
// first (the last run may be shorter), copied back per image, with bias then
// added — NaN payloads aside, which the swapped multiplication may pick
// differently. ConvRowsForm(g, OutC) must hold. scratch needs
// ConvRowsScratch(g, OutC, b) floats.
func ConvRowsSerialInto(y []float32, wmat *Tensor, packed, bias []float32, g ConvGeom, x []float32, b, stack int, scratch []float32) {
	outC, kdim := wmat.Shape[0], wmat.Shape[1]
	if !ConvRowsForm(g, outC) || kdim != g.InC*g.KH*g.KW || stack < 1 {
		panic(fmt.Sprintf("tensor: ConvRowsSerialInto weights %v, stack %d for geometry %+v", wmat.Shape, stack, g))
	}
	if need := ConvRowsScratch(g, outC, b); len(scratch) < need {
		panic(fmt.Sprintf("tensor: ConvRows scratch %d < ConvRowsScratch %d", len(scratch), need))
	}
	hw := g.OutH() * g.OutW()
	rows := b * hw
	if rows == 0 {
		return
	}
	win, scratch := scratch[:windowLen(g, b)], scratch[windowLen(g, b):]
	prod, scratch := scratch[:rows*outC], scratch[rows*outC:]
	pos, taps := int32s(scratch, rows), int32s(scratch[rows:], kdim)
	spare := scratch[rows+kdim:]
	padImages(win, g, x, b)
	posOffs(pos, g, b)
	tapOffs(taps, g)

	pp := ProjPanels{k: kdim, n: outC, strips: packed[:kdim*outC]}
	src := gemmB{kind: bPanels, n: outC, pp: &pp}
	A := gemmA{a: win, rowOff: pos, kOff: taps}
	rg := raggedRows{prod: prod, wmat: wmat, A: A, tile: spare[:(gemmNR-1)*gemmKC], out: spare[(gemmNR-1)*gemmKC:]}
	// Strip rows in runs as long as the ragged rows allow; ragged rows, at
	// most 15 a run of stack images, in groups of up to 15.
	run := 0
	for r0 := 0; r0 < rows; r0 += stack * hw {
		r1 := min(r0+stack*hw, rows)
		rs := r0 + PanelStripCols(r1-r0)
		if rs == r1 {
			continue
		}
		gemmDrive(prod[run*outC:], outC, A.at(run, 0), rs-run, &src, 0, outC, 0, kdim, nil, true)
		for r := rs; r < r1; r++ {
			rg.add(r)
		}
		run = r1
	}
	gemmDrive(prod[run*outC:], outC, A.at(run, 0), rows-run, &src, 0, outC, 0, kdim, nil, true)
	rg.flush()

	// Yᵀ back to y's [OutC, HW] planes, with the bias add the column
	// product's caller makes.
	for s := 0; s < b; s++ {
		ps, ys := prod[s*hw*outC:][:hw*outC], y[s*outC*hw:][:outC*hw]
		for oc := 0; oc < outC; oc++ {
			plane := ys[oc*hw:][:hw]
			if bias == nil {
				for j := range plane {
					plane[j] = ps[j*outC+oc]
				}
				continue
			}
			bv := bias[oc]
			for j := range plane {
				plane[j] = ps[j*outC+oc] + bv
			}
		}
	}
}

// raggedRows computes the rows of a rows-form product that are ragged
// columns of the column product, up to 15 at a time: their patches copied
// into a dense [kc, w] tile per K block, and W times that tile on
// gemmRaggedPart over all of K from a cleared output — the column product's
// own ragged-column walk, whose chains do not depend on which columns share
// a call. The results go to their rows of prod.
type raggedRows struct {
	prod      []float32
	wmat      *Tensor
	A         gemmA
	tile, out []float32
	rows      [gemmNR - 1]int
	n         int
}

func (rg *raggedRows) add(r int) {
	rg.rows[rg.n] = r
	if rg.n++; rg.n == len(rg.rows) {
		rg.flush()
	}
}

func (rg *raggedRows) flush() {
	w, rows := rg.n, rg.rows[:rg.n]
	if w == 0 {
		return
	}
	rg.n = 0
	outC, kdim := rg.wmat.Shape[0], rg.wmat.Shape[1]
	out := rg.out[:outC*w]
	clear(out)
	for pb := 0; pb < kdim; pb += gemmKC {
		kc := min(gemmKC, kdim-pb)
		tile := rg.tile[:kc*w]
		for p, off := range rg.A.kOff[pb : pb+kc] {
			for q, r := range rows {
				tile[p*w+q] = rg.A.a[int(rg.A.rowOff[r])+int(off)]
			}
		}
		gemmRaggedPart(out, w, rg.wmat.Data[pb:], kdim, outC, tile, w, kc, w)
	}
	for q, r := range rows {
		dst := rg.prod[r*outC:][:outC]
		for oc := range dst {
			dst[oc] = out[oc*w+q]
		}
	}
}

// ConvGradScratch returns the float32 scratch ConvWeightGradSerialInto needs
// for b images of geometry g: the driver's, the images' padded window and the
// two offset tables.
func ConvGradScratch(g ConvGeom, b int) int {
	return GemmScratch() + windowLen(g, b) + g.InC*g.KH*g.KW + b*g.OutH()*g.OutW()
}

// ConvWeightGradSerialInto accumulates dwT += cols·gradᵀ, a conv's weight
// gradient over b images of x, strictly serially: cols is the
// [InC·KH·KW, b·HW] column matrix of the images side by side (Im2ColWindow at
// offsets s·HW), grad [OutC, b·HW] their output gradients in the same column
// order, dwT [InC·KH·KW, OutC]. cols is read in place from the images' padded
// window, so the bits are those of Im2ColWindow and MatMulAccTSerialInto.
// scratch needs ConvGradScratch(g, b) floats.
func ConvWeightGradSerialInto(dwT *Tensor, g ConvGeom, x []float32, b int, grad *Tensor, scratch []float32) {
	kdim, ld := g.InC*g.KH*g.KW, b*g.OutH()*g.OutW()
	if grad.Rank() != 2 || grad.Shape[1] != ld || dwT.Rank() != 2 || dwT.Shape[0] != kdim || dwT.Shape[1] != grad.Shape[0] {
		panic(fmt.Sprintf("tensor: ConvWeightGrad shapes dWᵀ %v, grad %v for %d images of %+v", dwT.Shape, grad.Shape, b, g))
	}
	if need := ConvGradScratch(g, b); len(scratch) < need {
		panic(fmt.Sprintf("tensor: ConvWeightGrad scratch %d < ConvGradScratch %d", len(scratch), need))
	}
	if ld == 0 {
		return
	}
	gs := GemmScratch()
	win, rest := scratch[gs:][:windowLen(g, b)], scratch[gs+windowLen(g, b):]
	taps, pos := int32s(rest, kdim), int32s(rest[kdim:], ld)
	padImages(win, g, x, b)
	tapOffs(taps, g)
	posOffs(pos, g, b)
	src := gemmB{kind: bDenseT, n: grad.Shape[0], b: grad.Data, k: ld}
	gemmDrive(dwT.Data, dwT.Shape[1], gemmA{a: win, rowOff: taps, kOff: pos}, kdim, &src, 0, dwT.Shape[1], 0, ld, scratch[:gs], false)
}

// MatMulATScratch returns the float32 scratch MatMulATSerialInto needs for a
// product of m output rows over a reduction of k: the driver's, then its
// offset tables.
func MatMulATScratch(m, k int) int { return GemmScratch() + m + k }

// MatMulATSerialInto computes dst = aᵀ·b for a [K, M], b [K, N] and dst
// [M, N] strictly serially, with aᵀ read in place from a — the input
// gradient's dcols = Wᵀ·G without the weights transposed. Bit-identical to
// MatMulSerialInto(dst, Transpose(a), b). scratch needs MatMulATScratch(M, K)
// floats.
func MatMulATSerialInto(dst, a, b *Tensor, scratch []float32) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 || a.Shape[0] != b.Shape[0] ||
		dst.Shape[0] != a.Shape[1] || dst.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulAT shape mismatch %vᵀ @ %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if need := MatMulATScratch(m, k); len(scratch) < need {
		panic(fmt.Sprintf("tensor: MatMulATSerialInto scratch %d < MatMulATScratch %d", len(scratch), need))
	}
	if int64(k)*int64(m) > 1<<31-1 {
		panic(fmt.Sprintf("tensor: MatMulAT operand %v too large for its offset tables", a.Shape))
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst.Data[:m*n])
		return
	}
	gs := GemmScratch()
	rowOff, kOff := int32s(scratch[gs:], m), int32s(scratch[gs+m:], k)
	for i := range rowOff {
		rowOff[i] = int32(i)
	}
	for p := range kOff {
		kOff[p] = int32(p * m)
	}
	src := gemmB{kind: bDense, n: n, b: b.Data}
	gemmDrive(dst.Data, n, gemmA{a: a.Data, rowOff: rowOff, kOff: kOff}, m, &src, 0, n, 0, k, scratch[:gs], true)
}

// windowLen is the length of b images' padded window.
func windowLen(g ConvGeom, b int) int {
	hp, wp := depthwiseWindow(g)
	return b * g.InC * hp * wp
}

// padImages copies b images of x into win as [b, InC, hp, wp] planes, each
// image plane at row PadH and column PadW of its zero-padded plane.
func padImages(win []float32, g ConvGeom, x []float32, b int) {
	hp, wp := depthwiseWindow(g)
	plane, in := hp*wp, g.InH*g.InW
	if int64(b)*int64(g.InC)*int64(plane) > 1<<31-1 {
		panic(fmt.Sprintf("tensor: a padded window of %d images of %+v is too large for its offset tables", b, g))
	}
	clear(win[:b*g.InC*plane])
	for pi := 0; pi < b*g.InC; pi++ {
		padPlane(win[pi*plane:], wp, x[pi*in:], g)
	}
}

// tapOffs writes the window offset of every im2col row p = (c·KH + kh)·KW + kw.
func tapOffs(dst []int32, g ConvGeom) {
	hp, wp := depthwiseWindow(g)
	p := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				dst[p] = int32((c*hp+kh)*wp + kw)
				p++
			}
		}
	}
}

// posOffs writes the window offset of every output position of b images, in
// the stacked column order s·HW + oh·OutW + ow.
func posOffs(dst []int32, g ConvGeom, b int) {
	hp, wp := depthwiseWindow(g)
	j := 0
	for s := 0; s < b; s++ {
		for oh := 0; oh < g.OutH(); oh++ {
			for ow := 0; ow < g.OutW(); ow++ {
				dst[j] = int32(s*g.InC*hp*wp + oh*g.StrideH*wp + ow*g.StrideW)
				j++
			}
		}
	}
}
