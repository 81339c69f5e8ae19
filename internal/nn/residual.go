package nn

import (
	"fmt"

	"nshd/internal/tensor"
)

// Residual computes y = Body(x) + Proj(x); Proj may be nil for an identity
// skip (requires Body to preserve shape). It is the skip connection used by
// MobileNetV2's inverted residual blocks and EfficientNet's MBConv blocks.
type Residual struct {
	Body *Sequential
	Proj Layer // nil = identity skip
}

// NewResidual wraps body with a skip connection.
func NewResidual(body *Sequential, proj Layer) *Residual {
	return &Residual{Body: body, Proj: proj}
}

// Name implements Layer.
func (r *Residual) Name() string { return fmt.Sprintf("residual(%s)", r.Body.Label) }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Forward(x)
	var skip *tensor.Tensor
	if r.Proj != nil {
		skip = r.Proj.Forward(x)
	} else {
		skip = x
	}
	if !y.SameShape(skip) {
		panic(fmt.Sprintf("nn: residual shape mismatch body=%v skip=%v", y.Shape, skip.Shape))
	}
	return tensor.Add(y, skip)
}

// Backward implements Layer: the gradient flows through both branches and
// the input gradients sum.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dxBody := r.Body.Backward(grad)
	if r.Proj != nil {
		dxSkip := r.Proj.Backward(grad)
		return tensor.Add(dxBody, dxSkip)
	}
	return tensor.Add(dxBody, grad)
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (r *Residual) OutShape(in []int) []int { return r.Body.OutShape(in) }

// Stats implements Layer. The elementwise add costs no MACs under the
// paper's counting convention.
func (r *Residual) Stats(in []int) Stats {
	s := r.Body.Stats(in)
	if r.Proj != nil {
		s.Add(r.Proj.Stats(in))
	}
	return s
}

// SEBlock is a squeeze-and-excitation block: channel attention computed from
// globally pooled features through a bottleneck MLP, used by EfficientNet.
//
//	scale = σ(W2·SiLU(W1·gap(x)))  ;  y = x * scale (broadcast over H, W)
type SEBlock struct {
	C, Reduced int
	FC1, FC2   *Linear
	act        *SiLU
	sig        *Sigmoid

	cachedX     *tensor.Tensor
	cachedScale *tensor.Tensor // [N, C]
	cachedGAP   *GlobalAvgPool2D
}

// NewSEBlock constructs an SE block with the given reduction ratio.
func NewSEBlock(rng *tensor.RNG, c, reduction int) *SEBlock {
	red := c / reduction
	if red < 1 {
		red = 1
	}
	return &SEBlock{
		C: c, Reduced: red,
		FC1: NewLinear(rng, c, red, true),
		FC2: NewLinear(rng, red, c, true),
		act: NewSiLU(),
		sig: NewSigmoid(),
	}
}

// Name implements Layer.
func (se *SEBlock) Name() string { return fmt.Sprintf("se(%d/%d)", se.C, se.Reduced) }

// Forward implements Layer.
func (se *SEBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "SEBlock")
	if x.Rank() != 4 || x.Shape[1] != se.C {
		panic(fmt.Sprintf("nn: SEBlock(%d) expects [N %d H W], got %v", se.C, se.C, x.Shape))
	}
	gap := NewGlobalAvgPool2D()
	pooled := gap.Forward(x) // [N, C]
	z := se.FC1.Forward(pooled)
	z = se.act.Forward(z)
	z = se.FC2.Forward(z)
	scale := se.sig.Forward(z) // [N, C]

	h, w := x.Shape[2], x.Shape[3]
	y := tensor.New(x.Shape...)
	for i := 0; i < n; i++ {
		for ch := 0; ch < se.C; ch++ {
			s := scale.Data[i*se.C+ch]
			base := (i*se.C + ch) * h * w
			for j := 0; j < h*w; j++ {
				y.Data[base+j] = x.Data[base+j] * s
			}
		}
	}
	se.cachedX, se.cachedScale, se.cachedGAP = x, scale, gap
	return y
}

// Backward implements Layer.
func (se *SEBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if se.cachedX == nil {
		panic("nn: SEBlock.Backward without Forward")
	}
	x, scale := se.cachedX, se.cachedScale
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]

	// y = x*s: dx gets grad*s; ds gets Σ_hw grad*x.
	dx := tensor.New(x.Shape...)
	dScale := tensor.New(n, se.C)
	for i := 0; i < n; i++ {
		for ch := 0; ch < se.C; ch++ {
			s := scale.Data[i*se.C+ch]
			base := (i*se.C + ch) * h * w
			var ds float32
			for j := 0; j < h*w; j++ {
				g := grad.Data[base+j]
				dx.Data[base+j] = g * s
				ds += g * x.Data[base+j]
			}
			dScale.Data[i*se.C+ch] = ds
		}
	}
	// Back through the MLP to the pooled features.
	d := se.sig.Backward(dScale)
	d = se.FC2.Backward(d)
	d = se.act.Backward(d)
	d = se.FC1.Backward(d)
	dPooled := se.cachedGAP.Backward(d)
	return tensor.Add(dx, dPooled)
}

// Params implements Layer.
func (se *SEBlock) Params() []*Param {
	return append(se.FC1.Params(), se.FC2.Params()...)
}

// OutShape implements Layer.
func (se *SEBlock) OutShape(in []int) []int { return in }

// Stats implements Layer.
func (se *SEBlock) Stats(in []int) Stats {
	s1 := se.FC1.Stats([]int{se.C})
	s2 := se.FC2.Stats([]int{se.Reduced})
	elems := int64(shapeElems(in))
	return Stats{
		MACs:     s1.MACs + s2.MACs + elems, // + the channel rescale
		Params:   s1.Params + s2.Params,
		ActBytes: elems * 4,
	}
}
