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

// Forward implements Layer. The sum is a new activation: the body's output
// may be its last layer's backward cache.
func (r *Residual) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Forward(a, x)
	skip := x
	if r.Proj != nil {
		skip = r.Proj.Forward(a, x)
	}
	if !y.SameShape(skip) {
		panic(fmt.Sprintf("nn: residual shape mismatch body=%v skip=%v", y.Shape, skip.Shape))
	}
	out := a.Alloc(y.Shape...)
	tensor.AddInto(out, y, skip)
	return out
}

// Backward implements Layer: the gradient flows through both branches and
// the input gradients sum.
func (r *Residual) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	dxBody := r.Body.Backward(a, grad)
	dxSkip := grad
	if r.Proj != nil {
		dxSkip = r.Proj.Backward(a, grad)
	}
	dx := a.Alloc(dxBody.Shape...)
	tensor.AddInto(dx, dxBody, dxSkip)
	return dx
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
	gap        *GlobalAvgPool2D

	cachedX     *tensor.Tensor
	cachedScale *tensor.Tensor // [N, C]
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
		gap: NewGlobalAvgPool2D(),
	}
}

// Name implements Layer.
func (se *SEBlock) Name() string { return fmt.Sprintf("se(%d/%d)", se.C, se.Reduced) }

// Forward implements Layer.
func (se *SEBlock) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "SEBlock")
	if x.Rank() != 4 || x.Shape[1] != se.C {
		panic(fmt.Sprintf("nn: SEBlock(%d) expects [N %d H W], got %v", se.C, se.C, x.Shape))
	}
	pooled := se.gap.Forward(a, x) // [N, C]
	z := se.FC1.Forward(a, pooled)
	z = se.act.Forward(a, z)
	z = se.FC2.Forward(a, z)
	scale := se.sig.Forward(a, z) // [N, C]

	h, w := x.Shape[2], x.Shape[3]
	y := a.Alloc(x.Shape...)
	for i := 0; i < n; i++ {
		for ch := 0; ch < se.C; ch++ {
			s := scale.Data[i*se.C+ch]
			base := (i*se.C + ch) * h * w
			for j := 0; j < h*w; j++ {
				y.Data[base+j] = x.Data[base+j] * s
			}
		}
	}
	se.cachedX, se.cachedScale = x, scale
	return y
}

// Backward implements Layer.
func (se *SEBlock) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if se.cachedX == nil {
		panic("nn: SEBlock.Backward without Forward")
	}
	x, scale := se.cachedX, se.cachedScale
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]

	// y = x*s: dx gets grad*s; ds gets Σ_hw grad*x.
	dx := a.Alloc(x.Shape...)
	dScale := a.Alloc(n, se.C)
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
	d := se.sig.Backward(a, dScale)
	d = se.FC2.Backward(a, d)
	d = se.act.Backward(a, d)
	d = se.FC1.Backward(a, d)
	dPooled := se.gap.Backward(a, d)
	tensor.AddInto(dx, dx, dPooled)
	return dx
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
