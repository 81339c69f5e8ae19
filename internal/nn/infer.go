package nn

import (
	"fmt"
	"math"
	"time"

	"nshd/internal/tensor"
)

// ForwardInfer runs all layers in order through their eval passes.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return s.forwardInferSteps(x, ar, nil)
}

// ForwardInferTimed is ForwardInfer with a per-step observer: record is
// called after each executed step with its display name and wall time. A
// step is one layer, or one peephole group (see forwardInferSteps) — the
// identical schedule ForwardInfer runs, so timing never changes results.
func (s *Sequential) ForwardInferTimed(x *tensor.Tensor, ar *tensor.Arena, record func(name string, seconds float64)) *tensor.Tensor {
	return s.forwardInferSteps(x, ar, record)
}

// bnEpilogue is implemented by the convolutions that can apply a BatchNorm2D
// over their outC output channels, and an activation after it, to each
// output plane as they write it.
type bnEpilogue interface {
	outChannels() int
	forwardInfer(x *tensor.Tensor, ar *tensor.Arena, bn *BatchNorm2D, act fusedAct) *tensor.Tensor
}

func (c *Conv2D) outChannels() int          { return c.OutC }
func (d *DepthwiseConv2D) outChannels() int { return d.C }

// bnAfter returns the convolution at ls[i] and the BatchNorm2D at ls[i+1]
// when the one can fold the other in (same channel count), else nils; a BN
// over another count is left to fail on its own.
func bnAfter(ls []Layer, i int) (bnEpilogue, *BatchNorm2D) {
	conv, ok := ls[i].(bnEpilogue)
	if !ok || i+1 >= len(ls) {
		return nil, nil
	}
	if bn, ok := ls[i+1].(*BatchNorm2D); ok && bn.C == conv.outChannels() {
		return conv, bn
	}
	return nil, nil
}

// actAt returns the activation at ls[j] that a BN sweep folds in, if any, and
// its suffix in a step name.
func actAt(ls []Layer, j int) (fusedAct, string) {
	if j < len(ls) {
		switch ls[j].(type) {
		case *ReLU6:
			return actReLU6, "+relu6"
		case *ReLU:
			return actReLU, "+relu"
		}
	}
	return actNone, ""
}

// forwardInferSteps is the single stepped implementation behind ForwardInfer
// and ForwardInferTimed.
//
// Peephole fusion: an elementwise activation directly after a BatchNorm2D
// folds into the normalization sweep, and a BatchNorm2D (with its
// activation) directly after a convolution folds into the convolution, which
// applies it to each output plane while the plane is still in L1 — so a
// depthwise or 1×1 conv, its BN and its ReLU6 read and write the activation
// once instead of three times. The sweeps are memory-bound; the arithmetic
// and comparisons are applied per element exactly as the separate passes
// would (bnActInPlace), keeping results bit-identical.
func (s *Sequential) forwardInferSteps(x *tensor.Tensor, ar *tensor.Arena, record func(string, float64)) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		var t0 time.Time
		if record != nil {
			t0 = time.Now()
		}
		step := s.Layers[i]
		suffix := ""
		var folded *BatchNorm2D // the BN folded into the conv at step
		if l, ok := step.(*BatchNorm2D); ok {
			act, name := actAt(s.Layers, i+1)
			x = l.forwardInferAct(x, act)
			if act != actNone {
				i++
				suffix = name
			}
		} else if conv, bn := bnAfter(s.Layers, i); bn != nil {
			act, name := actAt(s.Layers, i+2)
			x = conv.forwardInfer(x, ar, bn, act)
			folded, suffix = bn, name
			i++
			if act != actNone {
				i++
			}
		} else {
			x = step.ForwardInfer(x, ar)
		}
		if record != nil {
			// Stop the clock before building the display name: Name() is a
			// string construction the layer's compute didn't pay for.
			d := time.Since(t0)
			if fb, ok := step.(*FusedBlock); ok {
				suffix = " " + fb.Grid().String()
			}
			if folded != nil {
				suffix = "+" + folded.Name() + suffix
			}
			record(step.Name()+suffix, d.Seconds())
		}
	}
	return x
}

// ForwardInfer implements Layer: the per-sample column product W·cols
// on the serial GEMM, or its rows form (see forwardInfer), with arena scratch
// released before returning.
func (c *Conv2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return c.forwardInfer(x, ar, nil, actNone)
}

// forwardInfer is ForwardInfer with an epilogue on each sample's output while
// it is in L1: the bias, then channel oc of bn (nil = none) and act — the
// separate layers' per-element arithmetic (bnActInPlace), so the conv-led
// triple of forwardInferSteps' peephole moves no bit.
//
// Every output element has the bits of one sample's column product W·cols,
// computed in one of three ways. A pointwise (1×1, stride 1, no pad) conv is
// one GEMM per sample that reads its input, which is its own column matrix,
// in place. Any other conv in rows form (tensor.ConvRowsForm) with at least
// convInferRows output positions in the call packs W into arena scratch once
// and runs groups of convGroupRows positions as the rows of Yᵀ = patches·Wᵀ,
// as Forward does with chunks of one sample. The rest are one GEMM per sample
// that generates its packed strips tile by tile, reading the image in place
// where tensor.ConvOffsetForm allows (tensor.ConvMulSerialInto).
func (c *Conv2D) forwardInfer(x *tensor.Tensor, ar *tensor.Arena, bn *BatchNorm2D, act fusedAct) *tensor.Tensor {
	n := batchOf(x, "Conv2D")
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [N %d H W], got %v", c.InC, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	g := c.geom(h, w)
	hw := g.OutH() * g.OutW()
	y := ar.Alloc(n, c.OutC, g.OutH(), g.OutW())
	if n == 0 {
		return y
	}
	kdim := c.InC * c.KH * c.KW
	sampleIn, sampleOut := c.InC*h*w, c.OutC*hw
	m := ar.Mark()
	wmat := ar.Wrap(c.Weight.W.Data, c.OutC, kdim)
	var bias []float32
	if c.useBias {
		bias = c.Bias.W.Data
	}
	pointwise := c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
	if !pointwise && tensor.ConvRowsForm(g, c.OutC) && n*hw >= convInferRows {
		packed := ar.Floats(kdim * c.OutC)
		tensor.PackConvWeights(packed, wmat)
		group := min(n, (convGroupRows+hw-1)/hw)
		ws := ar.Floats(tensor.ConvRowsScratch(g, c.OutC, group))
		for lo := 0; lo < n; lo += group {
			b := min(group, n-lo)
			tensor.ConvRowsSerialInto(y.Data[lo*sampleOut:][:b*sampleOut], wmat, packed, bias, g, x.Data[lo*sampleIn:][:b*sampleIn], b, 1, ws)
			for p := lo * c.OutC; p < (lo+b)*c.OutC; p++ {
				bnActInPlace(y.Data[p*hw:][:hw], bn, p%c.OutC, act)
			}
		}
		ar.Release(m)
		return y
	}
	var cols *tensor.Tensor
	var scratch []float32
	if pointwise {
		cols = ar.Wrap(x.Data[:sampleIn], kdim, hw)
		scratch = ar.Floats(tensor.GemmScratch())
	} else {
		scratch = ar.Floats(tensor.ConvGemmScratch(g))
	}
	dst := ar.Wrap(y.Data[:sampleOut], c.OutC, hw)
	for i := 0; i < n; i++ {
		seg := y.Data[i*sampleOut : (i+1)*sampleOut]
		dst.Data = seg
		if pointwise {
			cols.Data = x.Data[i*sampleIn : (i+1)*sampleIn]
			tensor.MatMulSerialInto(dst, wmat, cols, scratch)
		} else {
			tensor.ConvMulSerialInto(dst, wmat, g, x.Data[i*sampleIn:(i+1)*sampleIn], scratch)
		}
		for oc := 0; oc < c.OutC; oc++ {
			plane := seg[oc*hw : (oc+1)*hw]
			if bias != nil {
				b := bias[oc]
				for j := range plane {
					plane[j] += b
				}
			}
			bnActInPlace(plane, bn, oc, act)
		}
	}
	ar.Release(m)
	return y
}

// ForwardInfer implements Layer.
func (d *DepthwiseConv2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return d.forwardInfer(x, ar, nil, actNone)
}

// forwardInfer is ForwardInfer with channel ch of bn (nil = none) and act
// applied to every output plane while it is in L1 (see planes): the conv-led
// triple of forwardInferSteps' peephole. The padded window is arena scratch,
// cleared once and shared by every plane.
func (d *DepthwiseConv2D) forwardInfer(x *tensor.Tensor, ar *tensor.Arena, bn *BatchNorm2D, act fusedAct) *tensor.Tensor {
	n := batchOf(x, "DepthwiseConv2D")
	if x.Rank() != 4 || x.Shape[1] != d.C {
		panic(fmt.Sprintf("nn: DepthwiseConv2D expects [N %d H W], got %v", d.C, x.Shape))
	}
	g := d.geom(x.Shape[2], x.Shape[3])
	y := ar.Alloc(n, d.C, g.OutH(), g.OutW())
	m := ar.Mark()
	win := ar.Floats(tensor.DepthwiseWindowLen(g))
	clear(win)
	d.planes(g, x.Data, y.Data, 0, n, win, bn, act)
	ar.Release(m)
	return y
}

// ForwardInfer implements Layer.
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

// ForwardInfer implements Layer.
func (m *GlobalAvgPool2D) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "GlobalAvgPool2D")
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2D expects [N C H W], got %v", x.Shape))
	}
	y := ar.Alloc(n, x.Shape[1])
	avgPlanes(y.Data, x.Data, x.Shape[2]*x.Shape[3])
	return y
}

// ForwardInfer implements Layer: a reshaped view, no copy.
func (f *Flatten) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "Flatten")
	return ar.Wrap(x.Data, n, x.Len()/n)
}

// ForwardInfer implements Layer through tensor.MatMulTInferInto: serial,
// but split by W's columns over the pool where W is over 1 MiB.
func (l *Linear) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "Linear")
	if x.Rank() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N %d], got %v", l.In, x.Shape))
	}
	y := ar.Alloc(n, l.Out)
	tensor.MatMulTInferInto(y, x, l.Weight.W)
	l.addBias(y)
	return y
}

// ForwardInfer implements Layer, clamping in place through tensor.ReLUInto —
// the kernel ReLU.Forward runs from x into a new tensor.
func (r *ReLU) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	tensor.ReLUInto(x.Data, x.Data)
	return x
}

// ForwardInfer implements Layer, clamping to [0, 6] in place.
func (r *ReLU6) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	bnActInPlace(x.Data, nil, 0, actReLU6)
	return x
}

// ForwardInfer implements Layer in place.
func (s *Sigmoid) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	for i, v := range x.Data {
		x.Data[i] = sigmoid32(v)
	}
	return x
}

// ForwardInfer implements Layer in place.
func (s *SiLU) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	for i, v := range x.Data {
		x.Data[i] = v * sigmoid32(v)
	}
	return x
}

// ForwardInfer implements Layer: the affine map with the running
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
		tensor.ReLUInto(seg, seg)
	case act == actReLU6:
		tensor.ClampReLU6Into(seg, seg)
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

// readsInputOnly reports whether l's ForwardInfer writes a freshly allocated
// output and only reads its input, decided by the first leaf l runs:
// convolutions, Linear, the pools and FusedBlock allocate; BatchNorm2D, the
// activations and SEBlock work in place, and anything else (Flatten returns a
// view) is assumed to.
func readsInputOnly(l Layer) bool {
	switch v := l.(type) {
	case *Sequential:
		return len(v.Layers) > 0 && readsInputOnly(v.Layers[0])
	case *Conv2D, *DepthwiseConv2D, *Linear, *MaxPool2D, *GlobalAvgPool2D, *FusedBlock:
		return true
	}
	return false
}

// ForwardInfer implements Layer. An identity skip is x itself when
// the body leaves x intact (every zoo block opens with a convolution) and a
// copy taken before the body runs when its first layer would clobber x in
// place.
func (r *Residual) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	skip := x
	if r.Proj != nil {
		skip = r.Proj.ForwardInfer(x, ar)
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

// ForwardInfer implements Layer: the attention MLP runs on arena
// scratch and the channel rescale happens in place on x.
func (se *SEBlock) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "SEBlock")
	if x.Rank() != 4 || x.Shape[1] != se.C {
		panic(fmt.Sprintf("nn: SEBlock(%d) expects [N %d H W], got %v", se.C, se.C, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	m := ar.Mark()
	pooled := ar.Alloc(n, se.C)
	avgPlanes(pooled.Data, x.Data, h*w)
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
