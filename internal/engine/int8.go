package engine

import (
	"fmt"
	"math"

	"nshd/internal/core"
	"nshd/internal/nn"
	"nshd/internal/quant"
	"nshd/internal/tensor"
)

// ---------------------------------------------------------------------------
// Unit grouping: the quantization pass works on fusion units, not raw layers.

type actKind int

const (
	actNone actKind = iota
	actRelu
	actRelu6
)

type unitKind int

const (
	unitFallback unitKind = iota
	unitConv
	unitLinear
	unitPool
	unitFlatten
)

// quantUnit is one fusion group of the float chain: a conv (with optional
// folded batch norm and clamp activation), a linear (with optional clamp), a
// lossless reshape/pool, or an unquantizable fallback leaf.
type quantUnit struct {
	kind   unitKind
	leaves []nn.Layer
	conv   *nn.Conv2D
	bn     *nn.BatchNorm2D
	lin    *nn.Linear
	pool   *nn.MaxPool2D
	act    actKind
}

// flattenChain descends nested Sequentials into a flat leaf list. Composite
// layers with internal structure (Residual, SE blocks) stay whole — they
// fall back to float as a unit.
func flattenChain(l nn.Layer, out []nn.Layer) []nn.Layer {
	if s, ok := l.(*nn.Sequential); ok {
		for _, sub := range s.Layers {
			out = flattenChain(sub, out)
		}
		return out
	}
	return append(out, l)
}

// matchAct consumes a trailing ReLU/ReLU6 leaf into the unit.
func matchAct(leaves []nn.Layer, j int, u *quantUnit) int {
	if j < len(leaves) {
		switch leaves[j].(type) {
		case *nn.ReLU:
			u.act = actRelu
			u.leaves = append(u.leaves, leaves[j])
			return j + 1
		case *nn.ReLU6:
			u.act = actRelu6
			u.leaves = append(u.leaves, leaves[j])
			return j + 1
		}
	}
	return j
}

// groupUnits fuses the leaf chain into quantization units, mirroring the
// float path's BN+activation peephole: Conv2D [+BatchNorm2D] [+ReLU|ReLU6],
// Linear [+ReLU|ReLU6], MaxPool2D, Flatten. Everything else is a fallback
// unit of one leaf.
func groupUnits(leaves []nn.Layer) []quantUnit {
	var units []quantUnit
	for i := 0; i < len(leaves); {
		switch v := leaves[i].(type) {
		case *nn.Conv2D:
			u := quantUnit{kind: unitConv, conv: v, leaves: []nn.Layer{v}}
			j := i + 1
			if j < len(leaves) {
				if bn, ok := leaves[j].(*nn.BatchNorm2D); ok && bn.C == v.OutC {
					u.bn = bn
					u.leaves = append(u.leaves, bn)
					j++
				}
			}
			j = matchAct(leaves, j, &u)
			units = append(units, u)
			i = j
		case *nn.Linear:
			u := quantUnit{kind: unitLinear, lin: v, leaves: []nn.Layer{v}}
			j := matchAct(leaves, i+1, &u)
			units = append(units, u)
			i = j
		case *nn.MaxPool2D:
			units = append(units, quantUnit{kind: unitPool, pool: v, leaves: []nn.Layer{v}})
			i++
		case *nn.Flatten:
			units = append(units, quantUnit{kind: unitFlatten, leaves: []nn.Layer{v}})
			i++
		default:
			units = append(units, quantUnit{kind: unitFallback, leaves: []nn.Layer{v}})
			i++
		}
	}
	return units
}

// ---------------------------------------------------------------------------
// Calibration: run the float chain over sample images, observe every unit
// boundary, convert ranges to u8 quantization parameters.

type qparams struct {
	scale float32
	zero  uint8
}

// calibrate returns len(units)+1 boundary parameters: [0] for the chain
// input, [i+1] for unit i's output.
func calibrate(units []quantUnit, images *tensor.Tensor) ([]qparams, error) {
	ar := tensor.NewArena()
	x := ar.Alloc(images.Shape...)
	copy(x.Data, images.Data)
	qp := make([]qparams, len(units)+1)
	var in quant.MinMaxObserver
	in.Observe(x.Data)
	qp[0].scale, qp[0].zero = quant.ActQuant(in.Range())
	for i, u := range units {
		for _, leaf := range u.leaves {
			il, ok := leaf.(nn.InferenceLayer)
			if !ok {
				return nil, fmt.Errorf("engine: calibration: layer %s has no inference path", leaf.Name())
			}
			x = il.ForwardInfer(x, ar)
		}
		var ob quant.MinMaxObserver
		ob.Observe(x.Data)
		qp[i+1].scale, qp[i+1].zero = quant.ActQuant(ob.Range())
	}
	return qp, nil
}

// syntheticCalibration is the stand-in batch when the caller provides no
// calibration images: deterministic unit-normal pixels. Real activation
// distributions can differ arbitrarily, so this keeps Compile total but puts
// accuracy at risk — deployment should pass WithCalibration.
func syntheticCalibration(shape [3]int) *tensor.Tensor {
	t := tensor.New(8, shape[0], shape[1], shape[2])
	tensor.NewRNG(12345).FillNormal(t, 0, 1)
	return t
}

// ---------------------------------------------------------------------------
// Quantized layer construction.

// clampFor translates a fused activation into requantization clamp bounds:
// ReLU raises the floor to the zero-point (real 0), ReLU6 also caps at the
// quantized 6.
func clampFor(act actKind, out qparams) (lo, hi uint8) {
	lo, hi = 0, 255
	switch act {
	case actRelu:
		lo = out.zero
	case actRelu6:
		lo = out.zero
		q6 := tensor.RoundAway(6/out.scale) + int32(out.zero)
		if q6 < int32(lo) {
			q6 = int32(lo)
		}
		if q6 > 255 {
			q6 = 255
		}
		hi = uint8(q6)
	}
	return lo, hi
}

// foldConvBN folds an eval-mode batch norm into a copy of the conv weights
// at full precision (the DPU's fold): w′ = w·γ/√(σ²+ε) per output channel,
// b′ = (b − μ)·γ/√(σ²+ε) + β.
func foldConvBN(c *nn.Conv2D, bn *nn.BatchNorm2D) (*tensor.Tensor, []float32) {
	w := tensor.FromSlice(append([]float32(nil), c.Weight.W.Data...), c.Weight.W.Shape...)
	bias := make([]float32, c.OutC)
	if c.Bias != nil {
		copy(bias, c.Bias.W.Data)
	}
	if bn == nil {
		return w, bias
	}
	kdim := c.InC * c.KH * c.KW
	for oc := 0; oc < c.OutC; oc++ {
		g := bn.Gamma.W.Data[oc] / float32(math.Sqrt(float64(bn.RunVar.Data[oc]+bn.Eps)))
		row := w.Data[oc*kdim : (oc+1)*kdim]
		for i := range row {
			row[i] *= g
		}
		bias[oc] = (bias[oc]-bn.RunMean.Data[oc])*g + bn.Beta.W.Data[oc]
	}
	return w, bias
}

// requantParams computes the accumulator-domain bias and combined per-channel
// requantization scales: Bias32[c] = round(b/(S_in·S_w[c])) − Z_in·ΣW[c],
// Scales[c] = S_in·S_w[c]/S_out.
func requantParams(wq *quant.Channels8, bias []float32, in, out qparams) ([]int32, []float32) {
	bias32 := make([]int32, wq.Rows)
	scales := make([]float32, wq.Rows)
	for oc := 0; oc < wq.Rows; oc++ {
		var wsum int32
		row := wq.Data[oc*wq.Cols : (oc+1)*wq.Cols]
		for _, v := range row {
			wsum += int32(v)
		}
		bias32[oc] = tensor.RoundAway(bias[oc]/(in.scale*wq.Scales[oc])) - int32(in.zero)*wsum
		scales[oc] = in.scale * wq.Scales[oc] / out.scale
	}
	return bias32, scales
}

func buildInt8Conv(u quantUnit, in, out qparams) *nn.Int8Conv2D {
	wf, bias := foldConvBN(u.conv, u.bn)
	wq := quant.QuantizeChannels(wf)
	bias32, scales := requantParams(wq, bias, in, out)
	lo, hi := clampFor(u.act, out)
	c := u.conv
	return nn.NewInt8Conv2D(c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad, wq.Data, bias32, scales,
		nn.Int8Quant{InScale: in.scale, InZero: in.zero, OutScale: out.scale, OutZero: out.zero, ClampLo: lo, ClampHi: hi})
}

func buildInt8Linear(u quantUnit, in, out qparams) *nn.Int8Linear {
	l := u.lin
	wq := quant.QuantizeChannels(l.Weight.W)
	bias := make([]float32, l.Out)
	if l.Bias != nil {
		copy(bias, l.Bias.W.Data)
	}
	bias32, scales := requantParams(wq, bias, in, out)
	lo, hi := clampFor(u.act, out)
	return nn.NewInt8Linear(l.In, l.Out, wq.Data, bias32, scales,
		nn.Int8Quant{InScale: in.scale, InZero: in.zero, OutScale: out.scale, OutZero: out.zero, ClampLo: lo, ClampHi: hi})
}

// ---------------------------------------------------------------------------
// Segments: maximal runs of quantized layers bracketed by quantize/dequantize
// boundaries, interleaved with float fallback runs.

type segRunner interface {
	run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
}

// floatSeg wraps fallback leaves in a Sequential so the float inference
// path's BN+activation peephole fusion still applies inside the segment.
type floatSeg struct{ s *nn.Sequential }

func (f floatSeg) run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return f.s.ForwardInfer(x, ar)
}

// int8Seg quantizes the incoming float activation once, runs its quantized
// layers entirely in u8/int32, and dequantizes once at the exit.
type int8Seg struct {
	in     qparams
	layers []nn.Int8Layer
}

func (s int8Seg) run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	q := ar.AllocU8(s.in.scale, s.in.zero, x.Shape...)
	tensor.QuantizeU8(q.Data, x.Data, s.in.scale, s.in.zero)
	for _, l := range s.layers {
		q = l.ForwardInt8(q, ar)
	}
	y := ar.Alloc(q.Shape...)
	tensor.DequantizeU8(y.Data, q.Data, q.Scale, q.Zero)
	return y
}

// int8Stage is a Stage built from alternating int8 and float segments.
type int8Stage struct {
	name string
	segs []segRunner
}

func (s int8Stage) Name() string { return s.name }
func (s int8Stage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	for _, sg := range s.segs {
		x = sg.run(x, ar)
	}
	return x
}

type int8Stats struct {
	covered, total int
	names          []string
}

// buildSegments converts a unit chain plus its boundary parameters into
// segment runners. Within an int8 segment the producing layer's output
// parameters flow to the next layer directly (pooling and flattening pass
// them through unchanged), so the chain is self-consistent by construction;
// observer boundaries are consulted at segment entries and after every
// conv/linear.
func buildSegments(units []quantUnit, qp []qparams, st *int8Stats) []segRunner {
	var segs []segRunner
	var curFloat []nn.Layer
	var curInt8 []nn.Int8Layer
	var entry, cur qparams
	flushFloat := func() {
		if len(curFloat) > 0 {
			segs = append(segs, floatSeg{nn.NewSequential("fallback", curFloat...)})
			curFloat = nil
		}
	}
	flushInt8 := func() {
		if len(curInt8) > 0 {
			segs = append(segs, int8Seg{in: entry, layers: curInt8})
			curInt8 = nil
		}
	}
	for i, u := range units {
		if u.kind == unitFallback {
			flushInt8()
			curFloat = append(curFloat, u.leaves...)
			continue
		}
		flushFloat()
		if len(curInt8) == 0 {
			entry = qp[i]
			cur = entry
		}
		var built nn.Int8Layer
		switch u.kind {
		case unitConv:
			built = buildInt8Conv(u, cur, qp[i+1])
			cur = qp[i+1]
		case unitLinear:
			built = buildInt8Linear(u, cur, qp[i+1])
			cur = qp[i+1]
		case unitPool:
			built = &nn.Int8MaxPool2D{K: u.pool.K}
		case unitFlatten:
			built = nn.Int8Flatten{}
		}
		curInt8 = append(curInt8, built)
		st.covered += len(u.leaves)
		st.names = append(st.names, fmt.Sprint(built))
	}
	flushInt8()
	flushFloat()
	return segs
}

// buildInt8Stages compiles the extract (and manifold) stages in int8 with
// per-layer float fallback. The LSH/flatten/projection tail keeps its float
// stages — the projection output is 1-bit already, so there is nothing left
// to quantize there.
func (e *Engine) buildInt8Stages(p *core.Pipeline, o *compileOptions) error {
	units := groupUnits(flattenChain(p.Extractor, nil))
	ne := len(units)
	if p.Manifold != nil {
		pool, fc := p.Manifold.InferLayers()
		if pool != nil {
			units = append(units, quantUnit{kind: unitPool, pool: pool, leaves: []nn.Layer{pool}})
		}
		units = append(units, quantUnit{kind: unitFlatten, leaves: []nn.Layer{nn.NewFlatten()}})
		units = append(units, quantUnit{kind: unitLinear, lin: fc, leaves: []nn.Layer{fc}})
	}
	calib := o.calib
	if calib == nil {
		calib = syntheticCalibration(e.inShape)
	} else if calib.Rank() != 4 || calib.Shape[0] < 1 || calib.Shape[1] != e.inShape[0] ||
		calib.Shape[2] != e.inShape[1] || calib.Shape[3] != e.inShape[2] {
		return fmt.Errorf("engine: calibration images %v, want [N %d %d %d]",
			calib.Shape, e.inShape[0], e.inShape[1], e.inShape[2])
	}
	qp, err := calibrate(units, calib)
	if err != nil {
		return err
	}
	var st int8Stats
	for _, u := range units {
		st.total += len(u.leaves)
	}
	segs := buildSegments(units[:ne], qp[:ne+1], &st)
	if !o.unfused {
		fuseInt8Segments(segs, e.inShape)
	}
	e.stages = append(e.stages, int8Stage{name: "extract", segs: segs})
	switch {
	case p.Manifold != nil:
		e.stages = append(e.stages, int8Stage{name: "manifold", segs: buildSegments(units[ne:], qp[ne:], &st)})
	case p.LSH != nil:
		e.stages = append(e.stages, flattenStage{}, newLSHStage(p.LSH))
	default:
		e.stages = append(e.stages, flattenStage{})
	}
	e.int8Covered, e.int8Total, e.int8Names = st.covered, st.total, st.names
	return nil
}

// fuseInt8Segments rewrites fusible conv[+pool] runs inside each int8
// segment into tiled Int8FusedBlocks (bit-exact; see nn.FuseInt8), tracking
// the per-sample shape across segments. Tracking stops — leaving later
// segments unfused — once the shape leaves [C, H, W] territory, where no
// further convs can appear anyway.
func fuseInt8Segments(segs []segRunner, inShape [3]int) {
	shape := []int{inShape[0], inShape[1], inShape[2]}
	for i := range segs {
		if len(shape) != 3 {
			return
		}
		switch v := segs[i].(type) {
		case floatSeg:
			shape = v.s.OutShape(shape)
		case int8Seg:
			v.layers = nn.FuseInt8(v.layers, shape[0], shape[1], shape[2])
			segs[i] = v
			shape = nn.Int8ChainShape(v.layers, shape)
		default:
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Introspection.

// Precision reports the numeric mode the engine was compiled with.
func (e *Engine) Precision() Precision { return e.precision }

// Int8Coverage reports how many of the quantizable-chain layers run in int8
// versus the chain's total layer count. Under Float32 both are zero.
func (e *Engine) Int8Coverage() (covered, total int) { return e.int8Covered, e.int8Total }

// Int8Layers describes the quantized layers, in execution order.
func (e *Engine) Int8Layers() []string { return append([]string(nil), e.int8Names...) }
