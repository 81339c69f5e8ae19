package nn

import (
	"fmt"
	"math"
	"time"

	"nshd/internal/tensor"
)

// InferenceLayer is the serving-side forward contract implemented by every
// layer in this package. ForwardInfer differs from Forward(train=false) in
// three ways that the serving engine depends on:
//
//   - it is state-free: no cached fields are read or written, so one layer
//     instance can serve many goroutines concurrently over frozen weights
//     (Forward(train=false) clears caches, which is a data race);
//   - it allocates exclusively from the caller's arena, so a frozen arena
//     makes the whole pass heap-allocation-free;
//   - it runs on the calling goroutine: the engine parallelizes across the
//     parts of a batch, not inside layers. The one exception is a FusedBlock,
//     which spreads its (sample, tile) items over the pool with a
//     parallel.Call — the only kind of fan-out allowed under an engine arena.
//
// Elementwise layers may overwrite x in place and return it; callers must
// therefore pass arena-owned activations, never model weights or user input.
// Numerically, ForwardInfer matches Forward(train=false) bit-for-bit: it
// reuses the same kernels in the same accumulation order (the serial GEMM
// runs the identical tile schedule — see tensor.MatMulSerialInto).
type InferenceLayer interface {
	Layer
	ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
}

// convImplicitMinFloats arbitrates, for the convs that cannot read their
// operand in place (tensor.ConvOffsetForm: narrow maps, OutW not a multiple
// of 16, and strided ones), between materializing Im2Col and generating
// packed strips tile by tile inside the GEMM, by the size in float32 elements
// of the column matrix. Measured interleaved in one process on the 2 MiB-L2
// benchmark machine (3×3 stride-1 convs, generate ÷ materialize time): 36 K
// floats 1.00–1.13, 81 K 1.07–1.10, 162 K 1.06–1.09, 225 K 1.17, 324 K
// 0.98–1.02, 450 K 0.97, 729 K 0.83, 900 K 0.84–0.92, 1 764 K 0.68 — the flat
// pass wins until the matrix stops fitting L2 beside the weights, so the
// crossover is 2¹⁹ floats (2 MiB); `go test -bench ConvMul/gate ./internal/nn`
// re-measures both sides. No zoo conv is strided; the four strided stems
// tried (6 K–330 K floats) ran generate ÷ materialize 0.82–1.00 and are not
// given a rule of their own. Var, not const, so tests can force either path
// on small shapes.
var convImplicitMinFloats = 1 << 19

// InferSupported reports whether every layer reachable from l implements the
// inference contract, descending into containers.
func InferSupported(l Layer) error {
	switch v := l.(type) {
	case *Sequential:
		for _, sub := range v.Layers {
			if err := InferSupported(sub); err != nil {
				return fmt.Errorf("%s: %w", v.Label, err)
			}
		}
		return nil
	case *Residual:
		if err := InferSupported(v.Body); err != nil {
			return err
		}
		if v.Proj != nil {
			return InferSupported(v.Proj)
		}
		return nil
	case InferenceLayer:
		return nil
	default:
		return fmt.Errorf("nn: layer %s has no inference path", l.Name())
	}
}

// ForwardInfer runs all layers in order through the inference contract.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return s.forwardInferSteps(x, ar, nil)
}

// ForwardInferTimed is ForwardInfer with a per-step observer: record is
// called after each executed step with its display name and wall time. A
// step is one layer, or one fused BN+activation pair — the identical
// schedule ForwardInfer runs, so timing never changes results.
func (s *Sequential) ForwardInferTimed(x *tensor.Tensor, ar *tensor.Arena, record func(name string, seconds float64)) *tensor.Tensor {
	return s.forwardInferSteps(x, ar, record)
}

// forwardInferSteps is the single stepped implementation behind ForwardInfer
// and ForwardInferTimed.
func (s *Sequential) forwardInferSteps(x *tensor.Tensor, ar *tensor.Arena, record func(string, float64)) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		var t0 time.Time
		if record != nil {
			t0 = time.Now()
		}
		step := s.Layers[i]
		suffix := ""
		// Peephole fusion: an elementwise activation directly after a
		// BatchNorm2D folds into the normalization sweep. Both passes are
		// memory-bound, so fusing halves their activation traffic; the
		// arithmetic and comparisons are applied per element exactly as the
		// separate passes would, keeping results bit-identical.
		if bn, ok := step.(*BatchNorm2D); ok && i+1 < len(s.Layers) {
			switch s.Layers[i+1].(type) {
			case *ReLU6:
				x = bn.forwardInferAct(x, actReLU6)
				i++
				suffix = "+relu6"
			case *ReLU:
				x = bn.forwardInferAct(x, actReLU)
				i++
				suffix = "+relu"
			default:
				x = bn.forwardInferAct(x, actNone)
			}
		} else {
			il, ok := step.(InferenceLayer)
			if !ok {
				panic(fmt.Sprintf("nn: layer %s has no inference path", step.Name()))
			}
			x = il.ForwardInfer(x, ar)
		}
		if record != nil {
			// Stop the clock before building the display name: Name() is a
			// string construction the layer's compute didn't pay for.
			d := time.Since(t0)
			if fb, ok := step.(*FusedBlock); ok {
				suffix = " " + fb.Grid().String()
			}
			record(step.Name()+suffix, d.Seconds())
		}
	}
	return x
}

// ForwardInfer implements InferenceLayer: per-sample im2col + serial GEMM
// with arena scratch released before returning.
func (c *Conv2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "Conv2D")
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [N %d H W], got %v", c.InC, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	g := c.geom(h, w)
	outH, outW := g.OutH(), g.OutW()
	y := ar.Alloc(n, c.OutC, outH, outW)
	if n == 0 {
		return y
	}
	kdim := c.InC * c.KH * c.KW
	m := ar.Mark()
	wmat := ar.Wrap(c.Weight.W.Data, c.OutC, kdim)
	// Pointwise (1×1, stride 1, no pad) convolution: im2col is the identity —
	// the column matrix is the input sample already laid out as [InC, H*W] —
	// so the GEMM reads the input segment directly. Same values, same layout,
	// same kernel: bit-identical to the copying path.
	pointwise := c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
	// Everything else goes through the implicit-GEMM path when it reads the
	// image in place (offset form: no column copy at any size) or when the
	// column matrix is too large to be worth materializing. Bit-identical to
	// im2col + GEMM (see tensor.ConvMulSerialInto), which stays the path of
	// small narrow layers and the testing reference.
	implicit := !pointwise && (tensor.ConvOffsetForm(g) || kdim*outH*outW >= convImplicitMinFloats)
	sampleIn := c.InC * h * w
	var cols *tensor.Tensor
	var scratch []float32
	switch {
	case pointwise:
		cols = ar.Wrap(x.Data[:sampleIn], kdim, outH*outW)
		scratch = ar.Floats(tensor.GemmScratch())
	case implicit:
		scratch = ar.Floats(tensor.ConvGemmScratch(g))
	default:
		cols = ar.Alloc(kdim, outH*outW)
		scratch = ar.Floats(tensor.GemmScratch())
	}
	sampleOut := c.OutC * outH * outW
	dst := ar.Wrap(y.Data[:sampleOut], c.OutC, outH*outW)
	for i := 0; i < n; i++ {
		seg := y.Data[i*sampleOut : (i+1)*sampleOut]
		dst.Data = seg
		switch {
		case pointwise:
			cols.Data = x.Data[i*sampleIn : (i+1)*sampleIn]
			tensor.MatMulSerialInto(dst, wmat, cols, scratch)
		case implicit:
			tensor.ConvMulSerialInto(dst, wmat, g, x.Data[i*sampleIn:(i+1)*sampleIn], scratch)
		default:
			tensor.Im2Col(g, x.Data[i*sampleIn:(i+1)*sampleIn], cols)
			tensor.MatMulSerialInto(dst, wmat, cols, scratch)
		}
		if c.useBias {
			for oc := 0; oc < c.OutC; oc++ {
				b := c.Bias.W.Data[oc]
				plane := seg[oc*outH*outW : (oc+1)*outH*outW]
				for j := range plane {
					plane[j] += b
				}
			}
		}
	}
	ar.Release(m)
	return y
}

// ForwardInfer implements InferenceLayer.
func (d *DepthwiseConv2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "DepthwiseConv2D")
	if x.Rank() != 4 || x.Shape[1] != d.C {
		panic(fmt.Sprintf("nn: DepthwiseConv2D expects [N %d H W], got %v", d.C, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	g := d.geom(h, w)
	outH, outW := g.OutH(), g.OutW()
	y := ar.Alloc(n, d.C, outH, outW)
	chanIn := h * w
	chanOut := outH * outW
	for i := 0; i < n; i++ {
		for ch := 0; ch < d.C; ch++ {
			src := x.Data[(i*d.C+ch)*chanIn : (i*d.C+ch+1)*chanIn]
			dst := y.Data[(i*d.C+ch)*chanOut : (i*d.C+ch+1)*chanOut]
			ker := d.Weight.W.Data[ch*d.KH*d.KW : (ch+1)*d.KH*d.KW]
			d.convChannelInfer(g, src, ker, dst)
		}
	}
	return y
}

// convChannelInfer computes the same depthwise channel convolution as
// convChannel but splits each output row into boundary and interior spans:
// interior taps never fall outside the input, so they run without per-tap
// bounds tests through tensor.Depthwise3x3Row (3×3 at stride 1, vectorized)
// or its general twin tensor.DepthwiseRow. The boundary of the zoo's 3×3
// stride-1 pad-1 layers is one column either side with two in-bounds taps a
// kernel row, written out as such; other geometries test every tap. Per
// output the accumulation order (kh-major, kw-minor, one float32 accumulator
// from +0, in-bounds taps only) is convChannel's, keeping the result
// bit-exact.
func (d *DepthwiseConv2D) convChannelInfer(g tensor.ConvGeom, src, ker, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	same3x3 := d.KH == 3 && d.KW == 3 && d.Stride == 1 && d.Pad == 1 && g.InW >= 2
	// Interior columns [wLo, wHi): every kw tap in bounds. Degenerate inputs
	// (kernel wider than the padded row) get no interior and run fully
	// guarded.
	wLo := (d.Pad + d.Stride - 1) / d.Stride
	wHi := (g.InW-d.KW+d.Pad)/d.Stride + 1
	if wHi > outW {
		wHi = outW
	}
	if wLo > outW {
		wLo = outW
	}
	if wHi < wLo {
		wLo, wHi = outW, outW
	}
	for oh := 0; oh < outH; oh++ {
		ihBase := oh*d.Stride - d.Pad
		// Valid vertical tap range for this output row.
		khLo, khHi := 0, d.KH
		if ihBase < 0 {
			khLo = -ihBase
		}
		if over := ihBase + d.KH - g.InH; over > 0 {
			khHi = d.KH - over
		}
		row := dst[oh*outW : (oh+1)*outW]
		edge := func(lo, hi int) {
			for ow := lo; ow < hi; ow++ {
				iwBase := ow*d.Stride - d.Pad
				var s float32
				for kh := khLo; kh < khHi; kh++ {
					srow := src[(ihBase+kh)*g.InW:]
					krow := ker[kh*d.KW:]
					for kw := 0; kw < d.KW; kw++ {
						iw := iwBase + kw
						if iw < 0 || iw >= g.InW {
							continue
						}
						s += srow[iw] * krow[kw]
					}
				}
				row[ow] = s
			}
		}
		if same3x3 {
			// Column 0 reads taps kw = 1, 2 at iw = 0, 1; the last column
			// taps kw = 0, 1 at the last two pixels.
			var l, r float32
			for kh := khLo; kh < khHi; kh++ {
				srow := src[(ihBase+kh)*g.InW:][:g.InW]
				k := ker[kh*3:][:3]
				l += float32(srow[0] * k[1])
				l += float32(srow[1] * k[2])
				r += float32(srow[g.InW-2] * k[0])
				r += float32(srow[g.InW-1] * k[1])
			}
			row[0], row[outW-1] = l, r
		} else {
			edge(0, wLo)
			edge(wHi, outW)
		}
		if wHi > wLo && khHi > khLo {
			in := src[(ihBase+khLo)*g.InW+wLo*d.Stride-d.Pad:]
			if d.KW == 3 && d.Stride == 1 {
				tensor.Depthwise3x3Row(row[wLo:wHi], in, g.InW, ker[khLo*3:], khHi-khLo)
			} else {
				tensor.DepthwiseRow(row[wLo:wHi], in, g.InW, d.Stride, ker[khLo*d.KW:], d.KW, khHi-khLo)
			}
		} else {
			clear(row[wLo:wHi])
		}
	}
}

// ForwardInfer implements InferenceLayer.
func (m *MaxPool2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "MaxPool2D")
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects [N C H W], got %v", x.Shape))
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := h/m.K, w/m.K
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window %d larger than input %dx%d", m.K, h, w))
	}
	y := ar.Alloc(n, c, outH, outW)
	m.poolPlanes(y.Data, nil, x.Data, 0, n*c, h, w)
	return y
}

// ForwardInfer implements InferenceLayer.
func (m *AvgPool2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "AvgPool2D")
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: AvgPool2D expects [N C H W], got %v", x.Shape))
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := h/m.K, w/m.K
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("nn: AvgPool2D window %d larger than input %dx%d", m.K, h, w))
	}
	y := ar.Alloc(n, c, outH, outW)
	inv := 1 / float32(m.K*m.K)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			inBase := (i*c + ch) * h * w
			outBase := (i*c + ch) * outH * outW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					var s float32
					for kh := 0; kh < m.K; kh++ {
						for kw := 0; kw < m.K; kw++ {
							s += x.Data[inBase+(oh*m.K+kh)*w+(ow*m.K+kw)]
						}
					}
					y.Data[outBase+oh*outW+ow] = s * inv
				}
			}
		}
	}
	return y
}

// ForwardInfer implements InferenceLayer.
func (m *GlobalAvgPool2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "GlobalAvgPool2D")
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2D expects [N C H W], got %v", x.Shape))
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	y := ar.Alloc(n, c)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[i*c+ch] = s * inv
		}
	}
	return y
}

// ForwardInfer implements InferenceLayer: a reshaped view, no copy.
func (f *Flatten) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "Flatten")
	return ar.Wrap(x.Data, n, x.Len()/n)
}

// ForwardInfer implements InferenceLayer via the serial transposed GEMM.
func (l *Linear) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "Linear")
	if x.Rank() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N %d], got %v", l.In, x.Shape))
	}
	y := ar.Alloc(n, l.Out)
	tensor.MatMulTSerialInto(y, x, l.Weight.W)
	if l.useBias {
		for i := 0; i < n; i++ {
			row := y.Row(i)
			for j := range row {
				row[j] += l.Bias.W.Data[j]
			}
		}
	}
	return y
}

// ForwardInfer implements InferenceLayer, clamping in place through
// tensor.ReLUInPlace — the kernel ReLU.Forward runs on its copy of x.
func (r *ReLU) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	tensor.ReLUInPlace(x.Data)
	return x
}

// ForwardInfer implements InferenceLayer, clamping to [0, 6] in place.
func (r *ReLU6) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	bnActInPlace(x.Data, nil, 0, actReLU6)
	return x
}

// ForwardInfer implements InferenceLayer in place.
func (s *Sigmoid) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	for i, v := range x.Data {
		x.Data[i] = sigmoid32(v)
	}
	return x
}

// ForwardInfer implements InferenceLayer in place.
func (s *SiLU) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	for i, v := range x.Data {
		x.Data[i] = v * sigmoid32(v)
	}
	return x
}

// ForwardInfer implements InferenceLayer: the eval-mode affine with running
// statistics, applied in place.
func (bn *BatchNorm2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return bn.forwardInferAct(x, actNone)
}

// fusedAct selects the activation folded into a BatchNorm2D inference sweep.
type fusedAct = tensor.Act

const (
	actNone  = tensor.ActNone
	actReLU  = tensor.ActReLU
	actReLU6 = tensor.ActReLU6
)

// bnActInPlace is the one BN/activation epilogue of the inference path —
// ReLU6, BatchNorm2D (alone or with a folded activation) and the fused
// blocks all end here: channel ch of bn (nil = no normalization) then act,
// over one channel plane in a single sweep of tensor's branch-free kernels,
// which keep the exact arithmetic and comparisons of the separate layers
// (g*(v-mean)*invStd + b, v<=0, v>=6), so folding is bit-identical to
// normalize-then-activate.
func bnActInPlace(seg []float32, bn *BatchNorm2D, ch int, act fusedAct) {
	switch {
	case bn != nil:
		invStd := 1 / float32(math.Sqrt(float64(bn.RunVar.Data[ch]+bn.Eps)))
		tensor.AffineActInPlace(seg, bn.Gamma.W.Data[ch], bn.RunMean.Data[ch], invStd, bn.Beta.W.Data[ch], act)
	case act == actReLU:
		tensor.ReLUInPlace(seg)
	case act == actReLU6:
		tensor.ClampReLU6InPlace(seg)
	}
}

// forwardInferAct normalizes in place, optionally applying a fused
// activation.
func (bn *BatchNorm2D) forwardInferAct(x *tensor.Tensor, act fusedAct) *tensor.Tensor {
	n := batchOf(x, "BatchNorm2D")
	if x.Rank() != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D(%d) expects [N %d H W], got %v", bn.C, bn.C, x.Shape))
	}
	hw := x.Shape[2] * x.Shape[3]
	for p := 0; p < n*bn.C; p++ {
		bnActInPlace(x.Data[p*hw:(p+1)*hw], bn, p%bn.C, act)
	}
	return x
}

// ForwardInfer implements InferenceLayer: identity at inference.
func (d *Dropout) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor { return x }

// readsInputOnly reports whether l's ForwardInfer writes a freshly allocated
// output and only reads its input, decided by the first leaf l runs:
// convolutions, Linear, the pools and FusedBlock allocate; BatchNorm2D, the
// activations, Dropout and SEBlock work in place, and anything else (Flatten
// returns a view) is assumed to.
func readsInputOnly(l Layer) bool {
	switch v := l.(type) {
	case *Sequential:
		return len(v.Layers) > 0 && readsInputOnly(v.Layers[0])
	case *Conv2D, *DepthwiseConv2D, *Linear, *MaxPool2D, *AvgPool2D, *GlobalAvgPool2D, *FusedBlock:
		return true
	}
	return false
}

// ForwardInfer implements InferenceLayer. An identity skip is x itself when
// the body leaves x intact (every zoo block opens with a convolution) and a
// copy taken before the body runs when its first layer would clobber x in
// place.
func (r *Residual) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	skip := x
	if r.Proj != nil {
		skip = r.Proj.(InferenceLayer).ForwardInfer(x, ar)
		// A projection never writes in place (it changes shape), so x is
		// still intact for the body below. Guard against an aliasing Proj
		// anyway: elementwise projections are not used by any zoo model.
		if skip == x {
			panic("nn: Residual.Proj must not alias its input")
		}
	} else if !readsInputOnly(r.Body) {
		skip = ar.Alloc(x.Shape...)
		copy(skip.Data, x.Data)
	}
	y := r.Body.ForwardInfer(x, ar)
	if !y.SameShape(skip) {
		panic(fmt.Sprintf("nn: residual shape mismatch body=%v skip=%v", y.Shape, skip.Shape))
	}
	tensor.AddInto(y, y, skip)
	return y
}

// ForwardInfer implements InferenceLayer: the attention MLP runs on arena
// scratch and the channel rescale happens in place on x.
func (se *SEBlock) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "SEBlock")
	if x.Rank() != 4 || x.Shape[1] != se.C {
		panic(fmt.Sprintf("nn: SEBlock(%d) expects [N %d H W], got %v", se.C, se.C, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	m := ar.Mark()
	pooled := ar.Alloc(n, se.C)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < se.C; ch++ {
			plane := x.Data[(i*se.C+ch)*h*w : (i*se.C+ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			pooled.Data[i*se.C+ch] = s * inv
		}
	}
	z := se.FC1.ForwardInfer(pooled, ar)
	z = se.act.ForwardInfer(z, ar)
	z = se.FC2.ForwardInfer(z, ar)
	scale := se.sig.ForwardInfer(z, ar)
	for i := 0; i < n; i++ {
		for ch := 0; ch < se.C; ch++ {
			s := scale.Data[i*se.C+ch]
			seg := x.Data[(i*se.C+ch)*h*w : (i*se.C+ch+1)*h*w]
			for j := range seg {
				seg[j] *= s
			}
		}
	}
	ar.Release(m)
	return x
}
