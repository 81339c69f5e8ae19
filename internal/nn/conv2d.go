package nn

import (
	"fmt"

	"nshd/internal/tensor"
)

// parallelFor indirects the worker-pool dispatch used by the training-side
// layer kernels. The determinism tests swap it for a serial runner with the
// identical chunk schedule to prove that parallel and serial backward passes
// produce bit-identical gradients.
var parallelFor = tensor.ParallelFor

// Conv2D is a standard 2-D convolution over [N, C, H, W] inputs with weights
// [OutC, InC, KH, KW]. Forward and Backward both walk the batch in fixed
// chunks of samples on the blocked GEMM driver; only the input is cached, and
// Backward recomputes the column matrix per chunk to trade compute for memory.
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

// Forward computes the convolution chunk by chunk of samples, one chunk per
// pool task. What a chunk does is a function of the layer geometry alone:
//
//   - in offset form (tensor.ConvOffsetForm: stride 1, OutW a multiple of 16)
//     each sample is one implicit GEMM that reads the image in place, as in
//     ForwardInfer — no column matrix, bit-identical to im2col + GEMM;
//   - otherwise the chunk's b samples are stacked side by side into one
//     column matrix [kdim, b·HW], multiplied once, and un-stacked into y by
//     row copies. b is 1 — the per-sample product, written straight into y —
//     unless train is set and HW is not a whole number of 16-column strips:
//     then every column of a per-sample product past the last whole strip
//     (at HW = 4, all of them) runs the ragged-column kernel, and stacking
//     convStackChunk(HW) samples puts all but the chunk's last < 16 columns
//     on the strip kernels. A whole number of strips is not stacked: the
//     per-sample panel stays L1-resident and the stacked one does not
//     (DESIGN.md, Training engine).
//
// Eval mode therefore computes exactly ForwardInfer's bits; train mode moves
// them only in stacked layers, as Backward's stacking does for gradients.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
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
	y := tensor.New(n, c.OutC, g.OutH(), g.OutW())
	if train {
		c.cachedX = x
	} else {
		c.cachedX = nil
	}
	kdim := c.InC * c.KH * c.KW
	wmat := c.Weight.W.Reshape(c.OutC, kdim)
	sampleIn := c.InC * h * w
	sampleOut := c.OutC * hw
	offset := tensor.ConvOffsetForm(g)
	chunk := 1
	if train && !offset && tensor.PanelStripCols(hw) != hw {
		chunk = convStackChunk(hw)
	}
	parallelFor((n+chunk-1)/chunk, func(clo, chi int) {
		var buf, gemmBuf []float32
		if offset {
			gemmBuf = tensor.GetFloats(tensor.ConvGemmScratch(g))
		} else {
			// One workspace per task, carved into cols and the stacked output.
			buf = tensor.GetFloats((kdim + c.OutC) * chunk * hw)
			gemmBuf = tensor.GetFloats(tensor.GemmScratch())
		}
		for ci := clo; ci < chi; ci++ {
			lo := ci * chunk
			b := min(chunk, n-lo)
			ys := y.Data[lo*sampleOut:][:b*sampleOut]
			if offset {
				tensor.ConvMulSerialInto(tensor.FromSlice(ys, c.OutC, hw), wmat, g, x.Data[lo*sampleIn:][:sampleIn], gemmBuf)
			} else {
				ld := b * hw // the stacked dimension
				cols := tensor.FromSlice(buf[:kdim*ld], kdim, ld)
				out := ys // one sample: the product is y's layout already
				if b > 1 {
					out = buf[kdim*ld:][:c.OutC*ld]
				}
				for s := 0; s < b; s++ {
					tensor.Im2ColWindow(g, x.Data[(lo+s)*sampleIn:][:sampleIn], cols.Data, ld, s*hw)
				}
				tensor.MatMulSerialInto(tensor.FromSlice(out, c.OutC, ld), wmat, cols, gemmBuf)
				if b > 1 {
					for p := 0; p < b*c.OutC; p++ {
						s, oc := p/c.OutC, p%c.OutC
						copy(ys[p*hw:][:hw], out[oc*ld+s*hw:])
					}
				}
			}
			if c.useBias {
				for p := 0; p < b*c.OutC; p++ {
					bias := c.Bias.W.Data[p%c.OutC]
					plane := ys[p*hw:][:hw]
					for j := range plane {
						plane[j] += bias
					}
				}
			}
		}
		tensor.PutFloats(gemmBuf)
		tensor.PutFloats(buf)
	})
	return y
}

// convBackChunk is the fixed number of samples per gradient-accumulator
// chunk in DepthwiseConv2D.Backward. It depends on nothing — in particular not
// on the worker count — so the chunk list, each chunk's internal accumulation
// order, and the final in-order merge are identical no matter how chunks are
// scheduled across workers: serial and parallel backward passes produce
// bit-identical gradients.
const convBackChunk = 4

// convStackChunk is the number of samples Conv2D stacks into one GEMM operand
// for a layer with hw output positions per sample — in Backward one pair of
// GEMMs, and so one private gradient accumulator, per chunk; in train-mode
// Forward one product per chunk where the per-sample one would have ragged
// columns. Enough that the stacked dimension chunk·hw reaches one K block of
// the GEMM driver (256) where a small feature map allows it, within [4, 16] —
// a batch of 32 still makes two chunks. Like convBackChunk it is a function of
// the layer alone, never of the worker count, so the same determinism
// contract holds.
func convStackChunk(hw int) int {
	return min(max(256/hw, 4), 16)
}

// Backward accumulates weight/bias gradients and returns dx. Each chunk of B
// samples is stacked into the GEMM operands — its output gradients as
// G [OutC, B·HW], its im2col as cols [kdim, B·HW] — so that the per-sample
// output size HW, which shrinks to 4 or 1 in the deep layers, is never a
// matrix dimension on its own: the weight gradient dWᵀ += cols·Gᵀ reduces
// over B·HW (taken transposed so that the small operand G is the packed one)
// and dcols = Wᵀ·G has B·HW columns, both on the blocked GEMM driver.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cachedX == nil {
		panic("nn: Conv2D.Backward without Forward(train=true)")
	}
	x := c.cachedX
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]
	g := c.geom(h, w)
	hw := g.OutH() * g.OutW()
	sampleIn := c.InC * h * w
	kdim := c.InC * c.KH * c.KW

	dx := tensor.New(n, c.InC, h, w)
	if n == 0 {
		return dx
	}
	wtBuf := tensor.GetFloats(kdim * c.OutC)
	wmatT := tensor.FromSlice(wtBuf, kdim, c.OutC)
	tensor.TransposeInto(wmatT, c.Weight.W.Reshape(c.OutC, kdim))

	chunk := convStackChunk(hw)
	numChunks := (n + chunk - 1) / chunk
	// One private gradient accumulator per chunk — dWᵀ [kdim, OutC], then db
	// [OutC] — merged in chunk order after the parallel loop.
	dwLen := kdim * c.OutC
	accLen := dwLen + c.OutC
	accBuf := tensor.GetFloats(numChunks * accLen)
	parallelFor(numChunks, func(clo, chi int) {
		// One workspace per task, carved into G, cols and dcols.
		buf := tensor.GetFloats((c.OutC + 2*kdim) * chunk * hw)
		gemmBuf := tensor.GetFloats(tensor.GemmScratch())
		for ci := clo; ci < chi; ci++ {
			acc := accBuf[ci*accLen:][:accLen]
			clear(acc)
			dwT, db := tensor.FromSlice(acc[:dwLen], kdim, c.OutC), acc[dwLen:]
			lo := ci * chunk
			b := min(chunk, n-lo)
			ld := b * hw // the stacked dimension
			gmat := tensor.FromSlice(buf[:c.OutC*ld], c.OutC, ld)
			cols := tensor.FromSlice(buf[c.OutC*ld:][:kdim*ld], kdim, ld)
			dcols := tensor.FromSlice(buf[(c.OutC+kdim)*ld:][:kdim*ld], kdim, ld)
			for s := 0; s < b; s++ {
				gs := grad.Data[(lo+s)*c.OutC*hw:][:c.OutC*hw]
				for oc := 0; oc < c.OutC; oc++ {
					copy(gmat.Data[oc*ld+s*hw:][:hw], gs[oc*hw:])
				}
				tensor.Im2ColWindow(g, x.Data[(lo+s)*sampleIn:][:sampleIn], cols.Data, ld, s*hw)
			}
			tensor.MatMulAccTSerialInto(dwT, cols, gmat, gemmBuf)
			if c.useBias {
				for oc := range db {
					var sum float32
					for _, v := range gmat.Row(oc) {
						sum += v
					}
					db[oc] = sum
				}
			}
			// dcols = Wᵀ·G ; dx = col2im(dcols), one column window per sample.
			tensor.MatMulSerialInto(dcols, wmatT, gmat, gemmBuf)
			for s := 0; s < b; s++ {
				tensor.Col2ImWindow(g, dcols.Data, ld, s*hw, dx.Data[(lo+s)*sampleIn:][:sampleIn])
			}
		}
		tensor.PutFloats(gemmBuf)
		tensor.PutFloats(buf)
	})
	// Merge into chunk 0's accumulator, each element in chunk order, so the
	// sums do not depend on how the element ranges are split over the pool.
	// wtBuf is free again and holds the one transpose back to the [OutC, kdim]
	// layout of the weights.
	tensor.ParallelForGrain(dwLen, elemGrain, func(lo, hi int) {
		for ci := 1; ci < numChunks; ci++ {
			tensor.Accumulate(accBuf[lo:hi], accBuf[ci*accLen+lo:][:hi-lo])
		}
	})
	dw := tensor.FromSlice(wtBuf, c.OutC, kdim)
	tensor.TransposeInto(dw, tensor.FromSlice(accBuf[:dwLen], kdim, c.OutC))
	tensor.Accumulate(c.Weight.Grad.Data, dw.Data)
	tensor.PutFloats(wtBuf)
	if c.useBias {
		for ci := 0; ci < numChunks; ci++ {
			tensor.Accumulate(c.Bias.Grad.Data, accBuf[ci*accLen+dwLen:][:c.OutC])
		}
	}
	tensor.PutFloats(accBuf)
	return dx
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

// Forward applies each channel's filter independently.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := batchOf(x, "DepthwiseConv2D")
	if x.Rank() != 4 || x.Shape[1] != d.C {
		panic(fmt.Sprintf("nn: DepthwiseConv2D expects [N %d H W], got %v", d.C, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	g := d.geom(h, w)
	outH, outW := g.OutH(), g.OutW()
	y := tensor.New(n, d.C, outH, outW)
	if train {
		d.cachedX = x
	} else {
		d.cachedX = nil
	}
	chanIn := h * w
	chanOut := outH * outW
	tensor.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ch := 0; ch < d.C; ch++ {
				src := x.Data[(i*d.C+ch)*chanIn : (i*d.C+ch+1)*chanIn]
				dst := y.Data[(i*d.C+ch)*chanOut : (i*d.C+ch+1)*chanOut]
				ker := d.Weight.W.Data[ch*d.KH*d.KW : (ch+1)*d.KH*d.KW]
				d.convChannel(g, src, ker, dst)
			}
		}
	})
	return y
}

func (d *DepthwiseConv2D) convChannel(g tensor.ConvGeom, src, ker, dst []float32) {
	outW := g.OutW()
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < outW; ow++ {
			var s float32
			for kh := 0; kh < d.KH; kh++ {
				ih := oh*d.Stride - d.Pad + kh
				if ih < 0 || ih >= g.InH {
					continue
				}
				for kw := 0; kw < d.KW; kw++ {
					iw := ow*d.Stride - d.Pad + kw
					if iw < 0 || iw >= g.InW {
						continue
					}
					s += src[ih*g.InW+iw] * ker[kh*d.KW+kw]
				}
			}
			dst[oh*outW+ow] = s
		}
	}
}

// Backward accumulates filter gradients and returns dx.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.cachedX == nil {
		panic("nn: DepthwiseConv2D.Backward without Forward(train=true)")
	}
	x := d.cachedX
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]
	g := d.geom(h, w)
	outH, outW := g.OutH(), g.OutW()
	chanIn := h * w
	chanOut := outH * outW
	dx := tensor.New(n, d.C, h, w)
	// Fixed sample chunks with one accumulator each (merged in chunk order),
	// mirroring Conv2D.Backward: deterministic under any scheduling, and one
	// filter-gradient allocation per chunk instead of per sample.
	numChunks := (n + convBackChunk - 1) / convBackChunk
	dwAll := make([]*tensor.Tensor, numChunks)
	parallelFor(numChunks, func(clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			dw := tensor.New(d.C, d.KH, d.KW)
			lo := ci * convBackChunk
			hi := lo + convBackChunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				d.backwardSample(x, grad, dx, dw, g, i, chanIn, chanOut, h, w, outH, outW)
			}
			dwAll[ci] = dw
		}
	})
	for _, dw := range dwAll {
		d.Weight.Grad.AXPY(1, dw)
	}
	return dx
}

// backwardSample accumulates one sample's filter gradient into dw and its
// input gradient into dx.
func (d *DepthwiseConv2D) backwardSample(x, grad, dx, dw *tensor.Tensor, g tensor.ConvGeom, i, chanIn, chanOut, h, w, outH, outW int) {
	for ch := 0; ch < d.C; ch++ {
		src := x.Data[(i*d.C+ch)*chanIn : (i*d.C+ch+1)*chanIn]
		gch := grad.Data[(i*d.C+ch)*chanOut : (i*d.C+ch+1)*chanOut]
		dsrc := dx.Data[(i*d.C+ch)*chanIn : (i*d.C+ch+1)*chanIn]
		ker := d.Weight.W.Data[ch*d.KH*d.KW : (ch+1)*d.KH*d.KW]
		dker := dw.Data[ch*d.KH*d.KW : (ch+1)*d.KH*d.KW]
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
