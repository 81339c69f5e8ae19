package nn

import (
	"fmt"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// parallelFor indirects the worker-pool dispatch used by the training-side
// layer kernels. The determinism tests swap it for a serial runner with the
// identical chunk schedule to prove that parallel and serial backward passes
// produce bit-identical gradients.
var parallelFor = func(n int, kernel func(lo, hi int)) { parallel.For(n, 1, kernel) }

// Conv2D is a standard 2-D convolution over [N, C, H, W] inputs with weights
// [OutC, InC, KH, KW]. Forward and Backward walk the batch in fixed groups of
// samples on the blocked GEMM driver; only the input is cached, and Backward
// reads it in place again through a padded window instead of a column matrix.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	Weight      *Param
	Bias        *Param
	useBias     bool
	cachedX     *tensor.Tensor
}

// NewConv2D constructs a convolution with He-normal weights.
func NewConv2D(rng *tensor.RNG, inC, outC, k, stride, pad int, bias bool) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		Weight:  newParam(fmt.Sprintf("conv%dx%d_%d_%d.w", k, k, inC, outC), outC, inC, k, k),
		useBias: bias,
	}
	rng.KaimingConv(c.Weight.W)
	if bias {
		c.Bias = newParam(fmt.Sprintf("conv%dx%d_%d_%d.b", k, k, inC, outC), outC)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d→%d,s%d,p%d)", c.KH, c.KW, c.InC, c.OutC, c.Stride, c.Pad)
}

func (c *Conv2D) geom(h, w int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: c.InC, InH: h, InW: w,
		KH: c.KH, KW: c.KW,
		StrideH: c.Stride, StrideW: c.Stride,
		PadH: c.Pad, PadW: c.Pad,
	}
}

// Forward computes the convolution of a training batch and caches x for
// Backward. Its bits are those of one column product W·cols per chunk of
// samples — cols the chunk's im2col, stacked side by side — and the chunk is
// one sample unless HW is not a whole number of 16-column strips: then
// convStackChunk(HW) samples put all but the chunk's last < 16 columns on the
// strip kernels instead of the ragged-column one (DESIGN.md, Training
// engine). How a chunk's product is computed depends on the geometry:
//
//   - in offset form (tensor.ConvOffsetForm: stride 1, OutW a multiple of 16)
//     each sample is one implicit GEMM that reads the image in place, as in
//     ForwardInfer;
//   - in rows form (tensor.ConvRowsForm: the other geometries, OutC a multiple
//     of 16) the output positions of a group of chunks are the rows of one
//     product Yᵀ = patches·Wᵀ, the patches read in place from the group's
//     padded window and W packed once per call — the column product's bits;
//   - otherwise the chunk's im2col is materialized and multiplied.
//
// One-sample chunks give ForwardInfer's bits; stacked ones move them, as
// Backward's stacking does for gradients.
func (c *Conv2D) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "Conv2D")
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [N %d H W], got %v", c.InC, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	g := c.geom(h, w)
	if err := g.Validate(); err != nil {
		panic(err)
	}
	hw := g.OutH() * g.OutW()
	y := a.Alloc(n, c.OutC, g.OutH(), g.OutW())
	c.cachedX = x
	kdim := c.InC * c.KH * c.KW
	wmat := a.Wrap(c.Weight.W.Data, c.OutC, kdim)
	sampleIn := c.InC * h * w
	sampleOut := c.OutC * hw
	offset := tensor.ConvOffsetForm(g)
	chunk := 1
	if !offset && tensor.PanelStripCols(hw) != hw {
		chunk = convStackChunk(hw)
	}
	var bias []float32
	if c.useBias {
		bias = c.Bias.W.Data
	}
	if tensor.ConvRowsForm(g, c.OutC) {
		m := a.Mark()
		packed := a.Floats(kdim * c.OutC)
		tensor.PackConvWeights(packed, wmat)
		group := convRowsGroup(n, hw, chunk)
		forTasks(a, (n+group-1)/group, tensor.ConvRowsScratch(g, c.OutC, group), func(ws []float32, glo, ghi int) {
			for gi := glo; gi < ghi; gi++ {
				lo := gi * group
				b := min(group, n-lo)
				tensor.ConvRowsSerialInto(y.Data[lo*sampleOut:][:b*sampleOut], wmat, packed, bias, g, x.Data[lo*sampleIn:][:b*sampleIn], b, chunk, ws)
			}
		})
		a.Release(m)
		return y
	}
	// The bias as one sample's [OutC, HW] planes, added to each output
	// sample in one pass.
	m := a.Mark()
	var planes []float32
	if bias != nil {
		planes = a.Floats(sampleOut)
		for p := range planes {
			planes[p] = bias[p/hw]
		}
	}
	// One workspace per task: the GEMM scratch (in offset form the padded
	// window), then cols and the stacked output.
	gemmLen, bufLen := tensor.ConvGemmScratch(g), 0
	if !offset {
		gemmLen, bufLen = tensor.GemmScratch(), (kdim+c.OutC)*chunk*hw
	}
	forTasks(a, (n+chunk-1)/chunk, gemmLen+bufLen, func(ws []float32, clo, chi int) {
		gemmBuf, buf := ws[:gemmLen], ws[gemmLen:]
		var ms [2]mat
		for ci := clo; ci < chi; ci++ {
			lo := ci * chunk
			b := min(chunk, n-lo)
			ys := y.Data[lo*sampleOut:][:b*sampleOut]
			if offset {
				tensor.ConvMulSerialInto(ms[0].bind(ys, c.OutC, hw), wmat, g, x.Data[lo*sampleIn:][:sampleIn], gemmBuf)
			} else {
				ld := b * hw // the stacked dimension
				cols := ms[1].bind(buf, kdim, ld)
				out := ys // one sample: the product is y's layout already
				if b > 1 {
					out = buf[kdim*ld:][:c.OutC*ld]
				}
				for s := 0; s < b; s++ {
					tensor.Im2ColWindow(g, x.Data[(lo+s)*sampleIn:][:sampleIn], cols.Data, ld, s*hw)
				}
				tensor.MatMulSerialInto(ms[0].bind(out, c.OutC, ld), wmat, cols, gemmBuf)
				if b > 1 {
					for p := 0; p < b*c.OutC; p++ {
						s, oc := p/c.OutC, p%c.OutC
						copy(ys[p*hw:][:hw], out[oc*ld+s*hw:])
					}
				}
			}
			if planes != nil {
				tensor.AddRows(ys, sampleOut, planes, 0, sampleOut, b)
			}
		}
	})
	a.Release(m)
	return y
}

// convRowsGroup is how many samples one rows-form product of Forward covers:
// a whole number of chunks, enough for convGroupRows output positions, but no
// more than an even share of the batch per worker. Rows are independent
// chains, so the group moves no bit; only the chunk does.
func convRowsGroup(n, hw, chunk int) int {
	roundUp := func(v int) int { return (v + chunk - 1) / chunk * chunk }
	return max(chunk, min(roundUp((convGroupRows+hw-1)/hw), roundUp((n+parallel.Workers()-1)/parallel.Workers())))
}

// convGroupRows is the output positions a rows-form product aims at: rows
// enough to stream the packed weights' K blocks past.
const convGroupRows = 256

// convInferRows is the fewest output positions (samples · HW) of a
// ForwardInfer call on which a conv in rows form takes that form, packing W
// once: below them the per-sample product, which packs nothing, is faster.
// Rows form against it on AVX-512, medians of 15 alternated calls: 128→128 at
// 2×2 ×1.72 from one image (4 rows), ×0.90 from four (16); 128→128 at 4×4
// ×0.86 from one, ×0.31 from 32; 64→64 at 8×8 ×0.54 from one. A pointwise
// conv, its input its own column matrix, stays per sample (rows form
// ×0.94–6.3 on the zoo's 1×1 shapes).
const convInferRows = 16

// convBackChunk is the fixed number of samples per gradient-accumulator
// chunk in DepthwiseConv2D.Backward. It depends on nothing — in particular not
// on the worker count — so the chunk list, each chunk's internal accumulation
// order, and the final in-order merge are identical no matter how chunks are
// scheduled across workers: serial and parallel backward passes produce
// bit-identical gradients.
const convBackChunk = 4

// convStackChunk is the number of samples Conv2D stacks into one GEMM operand
// for a layer with hw output positions per sample — in Backward one pair of
// GEMMs, and so one private gradient accumulator, per chunk; in Forward one
// product per chunk where the per-sample one would have ragged
// columns. Enough that the stacked dimension chunk·hw reaches one K block of
// the GEMM driver (256) where a small feature map allows it, within [4, 16] —
// a batch of 32 still makes two chunks. Like convBackChunk it is a function of
// the layer alone, never of the worker count, so the same determinism
// contract holds.
func convStackChunk(hw int) int {
	return min(max(256/hw, 4), 16)
}

// Backward accumulates weight/bias gradients and returns dx. The batch is cut
// into chunks of convStackChunk(HW) samples, one private gradient accumulator
// each, merged in chunk order. Within a chunk:
//
//   - where HW is a whole number of the GEMM driver's K blocks (the 16×16 and
//     32×32 maps) the chunk is walked one sample at a time, with G read in
//     place from grad: the sample-by-sample sum is the stacked product's
//     K-block sequence (tensor.GemmKBlock), so the bits are those of the
//     stacked walk below;
//   - otherwise the chunk's B output gradients are stacked side by side into
//     G [OutC, B·HW], so that the per-sample output size HW, which shrinks to
//     4 or 1 in the deep layers, is never a matrix dimension on its own.
//
// Either way dWᵀ += cols·Gᵀ reads cols in place from the samples' padded
// window (tensor.ConvWeightGradSerialInto) and dcols = Wᵀ·G reads Wᵀ in place
// from the weights (tensor.MatMulATSerialInto): the bits of the column
// products, with no column matrix and no transpose. db is one float32 chain
// per channel in sample-then-position order, and dx is one col2im of the
// product's dcols (tensor.Col2ImWindow over its samples) into a sample range
// the chunk's task clears first. The chunk accumulators go into the weights'
// gradient in one blocked pass (mergeWeightGrad).
func (c *Conv2D) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if c.cachedX == nil {
		panic("nn: Conv2D.Backward without Forward")
	}
	dx := a.Alloc(c.cachedX.Shape...)
	c.backward(a, grad, dx)
	return dx
}

// BackwardParams is Backward without the input gradient: dW and db, to the
// same bits, and no dcols or col2im — all a caller needs from a model's first
// layer, whose input does not learn (Fit).
func (c *Conv2D) BackwardParams(a *tensor.Arena, grad *tensor.Tensor) {
	if c.cachedX == nil {
		panic("nn: Conv2D.Backward without Forward")
	}
	c.backward(a, grad, nil)
}

// backward is Backward, writing dx where it is not nil.
func (c *Conv2D) backward(a *tensor.Arena, grad, dx *tensor.Tensor) {
	x := c.cachedX
	n := x.Shape[0]
	if n == 0 {
		return
	}
	g := c.geom(x.Shape[2], x.Shape[3])
	hw := g.OutH() * g.OutW()
	sampleIn := c.InC * g.InH * g.InW
	kdim := c.InC * c.KH * c.KW
	wmat := a.Wrap(c.Weight.W.Data, c.OutC, kdim)

	chunk := convStackChunk(hw)
	perSample := hw%tensor.GemmKBlock() == 0
	numChunks := (n + chunk - 1) / chunk
	// One private gradient accumulator per chunk — dWᵀ [kdim, OutC], then db
	// [OutC] — merged in chunk order after the parallel loop.
	dwLen := kdim * c.OutC
	accLen := dwLen + c.OutC
	m := a.Mark()
	accBuf := a.Floats(numChunks * accLen)
	// One workspace per task: the products' scratch, then the stacked G and
	// dcols of one product (B samples, or one).
	b := chunk
	if perSample {
		b = 1
	}
	prodLen, bufLen := tensor.ConvGradScratch(g, b), 0
	if !perSample {
		bufLen = c.OutC * b * hw
	}
	if dx != nil {
		prodLen = max(prodLen, tensor.MatMulATScratch(kdim, c.OutC))
		bufLen += kdim * b * hw
	}
	forTasks(a, numChunks, prodLen+bufLen, func(ws []float32, clo, chi int) {
		prodBuf, buf := ws[:prodLen], ws[prodLen:]
		var ms [3]mat // G, dWᵀ, dcols
		for ci := clo; ci < chi; ci++ {
			acc := accBuf[ci*accLen:][:accLen]
			clear(acc)
			dwT, db := ms[1].bind(acc, kdim, c.OutC), acc[dwLen:]
			lo := ci * chunk
			b := min(chunk, n-lo)
			if dx != nil {
				clear(dx.Data[lo*sampleIn:][:b*sampleIn])
			}
			if perSample {
				for s := lo; s < lo+b; s++ {
					gmat := ms[0].bind(grad.Data[s*c.OutC*hw:], c.OutC, hw)
					c.backwardProducts(g, x, gmat, dx, dwT, db, wmat, s, 1, prodBuf, buf, &ms[2])
				}
				continue
			}
			ld := b * hw // the stacked dimension
			gs := ms[0].bind(buf, c.OutC, ld)
			for s := 0; s < b; s++ {
				src := grad.Data[(lo+s)*c.OutC*hw:]
				for oc := 0; oc < c.OutC; oc++ {
					copy(gs.Data[oc*ld+s*hw:][:hw], src[oc*hw:])
				}
			}
			c.backwardProducts(g, x, gs, dx, dwT, db, wmat, lo, b, prodBuf, buf[c.OutC*ld:], &ms[2])
		}
	})
	mergeWeightGrad(c.Weight.Grad.Data, accBuf, numChunks, accLen, kdim, c.OutC)
	if c.useBias {
		for ci := 0; ci < numChunks; ci++ {
			tensor.Accumulate(c.Bias.Grad.Data, accBuf[ci*accLen+dwLen:][:c.OutC])
		}
	}
	a.Release(m)
}

// mergeWeightGrad adds the sum of the chunks' dWᵀ accumulators — chunk ci's
// [kdim, outC] at acc[ci*accLen:] — to wg, the [outC, kdim] weight gradient,
// in one pass over mergeTile×mergeTile tiles: a tile's chunk sums go into
// chunk 0's accumulator, and the tile, still in cache, is added at its
// transposed place. Each element is grad + (((acc₀ + acc₁) + acc₂) + …), the
// sums of the two passes this replaced, and no split of the tiles over the
// pool moves a bit. A task owns whole rows of 16 output channels, so tasks
// write runs of wg 16·kdim floats long, which meet at 64-byte boundaries
// where wg is 64-byte aligned, as the heap's large allocations are.
func mergeWeightGrad(wg, acc []float32, chunks, accLen, kdim, outC int) {
	rows := (outC + mergeTile - 1) / mergeTile
	merge := func(lo, hi int) {
		var t [mergeTile][mergeTile]float32
		for ob := lo * mergeTile; ob < min(hi*mergeTile, outC); ob += mergeTile {
			nc := min(mergeTile, outC-ob)
			for pb := 0; pb < kdim; pb += mergeTile {
				nt := min(mergeTile, kdim-pb)
				tile := acc[pb*outC+ob:]
				for ci := 1; ci < chunks; ci++ {
					tensor.AddRows(tile, outC, acc[ci*accLen+pb*outC+ob:], outC, nc, nt)
				}
				if nt < mergeTile || nc < mergeTile {
					for o := 0; o < nc; o++ {
						dst := wg[(ob+o)*kdim+pb:][:nt]
						for i := range dst {
							dst[i] += tile[i*outC+o]
						}
					}
					continue
				}
				// A whole tile is read into an array first: with constant
				// bounds the transposed adds run without index checks, ×1.3–1.4
				// over indexing the accumulator on a VGG16/4 step's merges
				// (two-core bench box, one and two workers).
				for i := range t {
					t[i] = [mergeTile]float32(tile[i*outC:])
				}
				for o := 0; o < mergeTile; o++ {
					dst := (*[mergeTile]float32)(wg[(ob+o)*kdim+pb:])
					for i := range dst {
						dst[i] += t[i][o]
					}
				}
			}
		}
	}
	if chunks*kdim*outC < 2*elemGrain {
		merge(0, rows)
		return
	}
	parallelFor(rows, merge)
}

// mat is a rank-2 tensor header that a pool task rebinds item by item: where
// tensor.FromSlice puts a header and its shape on the heap at every call, a
// task's mats are one heap object for its whole range.
type mat struct {
	t     tensor.Tensor
	shape [2]int
}

// bind points m at the rows×cols matrix at the front of data.
func (m *mat) bind(data []float32, rows, cols int) *tensor.Tensor {
	m.shape = [2]int{rows, cols}
	m.t = tensor.Tensor{Shape: m.shape[:], Data: data[:rows*cols]}
	return &m.t
}

// mergeTile is the edge of mergeWeightGrad's tiles: 16 taps of one output
// channel are one 64-byte line of the weight gradient.
const mergeTile = 16

// backwardProducts is one product pair of Backward — samples [lo, lo+b)
// against gmat, their output gradients [OutC, b·HW] side by side —
// accumulating into dwT and db and, where dx is set, writing those samples'
// dx through dcols (kdim·b·HW floats of dcolsBuf, viewed through the task's
// header dcolsMat). prodBuf is the products' scratch.
func (c *Conv2D) backwardProducts(g tensor.ConvGeom, x, gmat, dx, dwT *tensor.Tensor, db []float32, wmat *tensor.Tensor, lo, b int, prodBuf, dcolsBuf []float32, dcolsMat *mat) {
	hw := g.OutH() * g.OutW()
	sampleIn := c.InC * g.InH * g.InW
	ld := b * hw
	tensor.ConvWeightGradSerialInto(dwT, g, x.Data[lo*sampleIn:][:b*sampleIn], b, gmat, prodBuf)
	if c.useBias {
		addRowSums(db, gmat.Data, ld)
	}
	if dx == nil {
		return
	}
	kdim := c.InC * c.KH * c.KW
	dcols := dcolsMat.bind(dcolsBuf, kdim, ld)
	tensor.MatMulATSerialInto(dcols, wmat, gmat, prodBuf)
	tensor.Col2ImWindow(g, dcols.Data, ld, b, dx.Data[lo*sampleIn:][:b*sampleIn])
}

// addRowSums adds the sum of row r of the [len(db), n] matrix m to db[r]:
// one float32 chain per row, in column order, from db[r] on. Eight rows go
// per pass, so eight chains overlap instead of each waiting on its own adds;
// each row's chain is the one a row-at-a-time loop would run.
func addRowSums(db, m []float32, n int) {
	r := 0
	for ; r+8 <= len(db); r += 8 {
		m0, m1, m2, m3 := m[r*n:][:n], m[(r+1)*n:][:n], m[(r+2)*n:][:n], m[(r+3)*n:][:n]
		m4, m5, m6, m7 := m[(r+4)*n:][:n], m[(r+5)*n:][:n], m[(r+6)*n:][:n], m[(r+7)*n:][:n]
		s0, s1, s2, s3 := db[r], db[r+1], db[r+2], db[r+3]
		s4, s5, s6, s7 := db[r+4], db[r+5], db[r+6], db[r+7]
		for j := 0; j < n; j++ {
			s0 += m0[j]
			s1 += m1[j]
			s2 += m2[j]
			s3 += m3[j]
			s4 += m4[j]
			s5 += m5[j]
			s6 += m6[j]
			s7 += m7[j]
		}
		db[r], db[r+1], db[r+2], db[r+3] = s0, s1, s2, s3
		db[r+4], db[r+5], db[r+6], db[r+7] = s4, s5, s6, s7
	}
	for ; r < len(db); r++ {
		s := db[r]
		for _, v := range m[r*n:][:n] {
			s += v
		}
		db[r] = s
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.useBias {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D(%d in) given input shape %v", c.InC, in))
	}
	g := c.geom(in[1], in[2])
	return []int{c.OutC, g.OutH(), g.OutW()}
}

// Stats implements Layer.
func (c *Conv2D) Stats(in []int) Stats {
	out := c.OutShape(in)
	outElems := int64(out[1] * out[2])
	macs := outElems * int64(c.OutC) * int64(c.InC*c.KH*c.KW)
	p := int64(c.OutC * c.InC * c.KH * c.KW)
	if c.useBias {
		p += int64(c.OutC)
	}
	return Stats{MACs: macs, Params: p, ActBytes: int64(c.OutC) * outElems * 4}
}

// DepthwiseConv2D convolves each channel with its own k×k filter (groups ==
// channels), the core of MobileNetV2/EfficientNet blocks. Weights are [C, KH, KW].
type DepthwiseConv2D struct {
	C           int
	KH, KW      int
	Stride, Pad int
	Weight      *Param
	cachedX     *tensor.Tensor
}

// NewDepthwiseConv2D constructs a depthwise convolution.
func NewDepthwiseConv2D(rng *tensor.RNG, c, k, stride, pad int) *DepthwiseConv2D {
	d := &DepthwiseConv2D{
		C: c, KH: k, KW: k, Stride: stride, Pad: pad,
		Weight: newParam(fmt.Sprintf("dwconv%dx%d_%d.w", k, k, c), c, k, k),
	}
	// He-normal with fan-in = k*k (one input channel per filter).
	w4 := d.Weight.W.Reshape(c, 1, k, k)
	rng.KaimingConv(w4)
	return d
}

// Name implements Layer.
func (d *DepthwiseConv2D) Name() string {
	return fmt.Sprintf("dwconv%dx%d(%d,s%d)", d.KH, d.KW, d.C, d.Stride)
}

func (d *DepthwiseConv2D) geom(h, w int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: 1, InH: h, InW: w,
		KH: d.KH, KW: d.KW,
		StrideH: d.Stride, StrideW: d.Stride,
		PadH: d.Pad, PadW: d.Pad,
	}
}

// Forward applies each channel's filter independently, plane by plane through
// tensor.DepthwisePlane — the kernel ForwardInfer runs, so it computes
// ForwardInfer's bits — and caches x for Backward. Each task clears its own
// padded window.
func (d *DepthwiseConv2D) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "DepthwiseConv2D")
	if x.Rank() != 4 || x.Shape[1] != d.C {
		panic(fmt.Sprintf("nn: DepthwiseConv2D expects [N %d H W], got %v", d.C, x.Shape))
	}
	g := d.geom(x.Shape[2], x.Shape[3])
	y := a.Alloc(n, d.C, g.OutH(), g.OutW())
	d.cachedX = x
	forTasks(a, n, tensor.DepthwiseWindowLen(g), func(win []float32, lo, hi int) {
		clear(win)
		d.planes(g, x.Data, y.Data, lo, hi, win, nil, actNone)
	})
	return y
}

// planes convolves samples [lo, hi) of x into y, one channel plane at a time
// through the zero-padded window win (cleared by the caller), and applies
// channel ch of bn (nil = none) and act to each output plane as soon as it is
// written — the BN epilogue of forwardInferSteps' peephole, per element the
// separate layers' arithmetic (bnActInPlace).
func (d *DepthwiseConv2D) planes(g tensor.ConvGeom, x, y []float32, lo, hi int, win []float32, bn *BatchNorm2D, act fusedAct) {
	chanIn, chanOut, taps := g.InH*g.InW, g.OutH()*g.OutW(), d.KH*d.KW
	for p := lo * d.C; p < hi*d.C; p++ {
		ch := p % d.C
		dst := y[p*chanOut:][:chanOut]
		tensor.DepthwisePlane(g, dst, x[p*chanIn:][:chanIn], d.Weight.W.Data[ch*taps:][:taps], win)
		bnActInPlace(dst, bn, ch, act)
	}
}

// Backward accumulates filter gradients and returns dx. The batch is cut
// into fixed chunks of convBackChunk samples, each with a filter-gradient
// accumulator of its own, merged in chunk order; a chunk's task clears its
// accumulator and its samples' range of dx before accumulating into them.
func (d *DepthwiseConv2D) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if d.cachedX == nil {
		panic("nn: DepthwiseConv2D.Backward without Forward")
	}
	x := d.cachedX
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]
	g := d.geom(h, w)
	outH, outW := g.OutH(), g.OutW()
	chanIn := h * w
	chanOut := outH * outW
	dx := a.Alloc(n, d.C, h, w)
	numChunks := (n + convBackChunk - 1) / convBackChunk
	dwLen := d.C * d.KH * d.KW
	m := a.Mark()
	dwAll := a.Floats(numChunks * dwLen)
	parallelFor(numChunks, func(clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			dw := dwAll[ci*dwLen:][:dwLen]
			clear(dw)
			lo := ci * convBackChunk
			hi := min(lo+convBackChunk, n)
			clear(dx.Data[lo*d.C*chanIn : hi*d.C*chanIn])
			for i := lo; i < hi; i++ {
				d.backwardSample(x, grad, dx, dw, g, i, chanIn, chanOut, h, w, outH, outW)
			}
		}
	})
	for ci := 0; ci < numChunks; ci++ {
		tensor.Accumulate(d.Weight.Grad.Data, dwAll[ci*dwLen:][:dwLen])
	}
	a.Release(m)
	return dx
}

// backwardSample accumulates one sample's filter gradient into dw and its
// input gradient into dx.
func (d *DepthwiseConv2D) backwardSample(x, grad, dx *tensor.Tensor, dw []float32, g tensor.ConvGeom, i, chanIn, chanOut, h, w, outH, outW int) {
	for ch := 0; ch < d.C; ch++ {
		src := x.Data[(i*d.C+ch)*chanIn : (i*d.C+ch+1)*chanIn]
		gch := grad.Data[(i*d.C+ch)*chanOut : (i*d.C+ch+1)*chanOut]
		dsrc := dx.Data[(i*d.C+ch)*chanIn : (i*d.C+ch+1)*chanIn]
		ker := d.Weight.W.Data[ch*d.KH*d.KW : (ch+1)*d.KH*d.KW]
		dker := dw[ch*d.KH*d.KW : (ch+1)*d.KH*d.KW]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				gv := gch[oh*outW+ow]
				if gv == 0 {
					continue
				}
				for kh := 0; kh < d.KH; kh++ {
					ih := oh*d.Stride - d.Pad + kh
					if ih < 0 || ih >= h {
						continue
					}
					for kw := 0; kw < d.KW; kw++ {
						iw := ow*d.Stride - d.Pad + kw
						if iw < 0 || iw >= w {
							continue
						}
						dker[kh*d.KW+kw] += gv * src[ih*w+iw]
						dsrc[ih*w+iw] += gv * ker[kh*d.KW+kw]
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.Weight} }

// OutShape implements Layer.
func (d *DepthwiseConv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != d.C {
		panic(fmt.Sprintf("nn: DepthwiseConv2D(%d) given input shape %v", d.C, in))
	}
	g := d.geom(in[1], in[2])
	return []int{d.C, g.OutH(), g.OutW()}
}

// Stats implements Layer.
func (d *DepthwiseConv2D) Stats(in []int) Stats {
	out := d.OutShape(in)
	outElems := int64(out[1] * out[2])
	return Stats{
		MACs:     outElems * int64(d.C) * int64(d.KH*d.KW),
		Params:   int64(d.C * d.KH * d.KW),
		ActBytes: int64(d.C) * outElems * 4,
	}
}
