package nn

import (
	"math"

	"nshd/internal/tensor"
)

// elemGrain is the fewest elements of an elementwise training sweep (an
// activation, an optimizer update) worth a pool task of their own: at a few
// bytes of traffic per element, smaller ranges lose to the dispatch.
const elemGrain = 1 << 14

// clampInto returns clamp of x into a fresh tensor taken from a, range by
// range over the pool: one pass that reads x and writes the result.
func clampInto(a *tensor.Arena, x *tensor.Tensor, clamp func(dst, src []float32)) *tensor.Tensor {
	y := a.Alloc(x.Shape...)
	tensor.ParallelForGrain(len(y.Data), elemGrain, func(lo, hi int) {
		clamp(y.Data[lo:hi], x.Data[lo:hi])
	})
	return y
}

// ReLU is max(0, x).
type ReLU struct {
	cachedY *tensor.Tensor
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward clamps negatives to zero into a new tensor through ForwardInfer's
// kernel, so the two agree bit for bit (NaN passes through, -0 becomes +0).
// The result is cached for Backward.
func (r *ReLU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	r.cachedY = clampInto(a, x, tensor.ReLUInto)
	return r.cachedY
}

// Backward zeroes gradients where the input was non-positive, read off the
// cached output: y > 0 exactly where x > 0, and a NaN gets no gradient.
func (r *ReLU) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if r.cachedY == nil {
		panic("nn: ReLU.Backward without Forward")
	}
	y := r.cachedY
	dx := a.Alloc(y.Shape...)
	tensor.ParallelForGrain(len(y.Data), elemGrain, func(lo, hi int) {
		tensor.ReLUBackInto(dx.Data[lo:hi], grad.Data[lo:hi], y.Data[lo:hi])
	})
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return in }

// Stats implements Layer.
func (r *ReLU) Stats(in []int) Stats { return Stats{ActBytes: int64(shapeElems(in)) * 4} }

// ReLU6 is min(max(0,x),6), the clipped activation MobileNetV2 uses.
type ReLU6 struct {
	cachedY *tensor.Tensor
}

// NewReLU6 constructs a ReLU6 activation.
func NewReLU6() *ReLU6 { return &ReLU6{} }

// Name implements Layer.
func (r *ReLU6) Name() string { return "relu6" }

// Forward clamps to [0, 6] through ForwardInfer's kernel, bit for bit, and
// caches the result for Backward.
func (r *ReLU6) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	r.cachedY = clampInto(a, x, tensor.ClampReLU6Into)
	return r.cachedY
}

// Backward passes gradients only in the linear region, read off the cached
// output: 0 < y < 6 exactly where 0 < x < 6, and a NaN gets no gradient.
func (r *ReLU6) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if r.cachedY == nil {
		panic("nn: ReLU6.Backward without Forward")
	}
	y := r.cachedY
	dx := a.Alloc(y.Shape...)
	tensor.ParallelForGrain(len(y.Data), elemGrain, func(lo, hi int) {
		ys, gs := y.Data[lo:hi], grad.Data[lo:hi]
		for i, g := range gs {
			b := math.Float32bits(g)
			if !(ys[i] > 0) {
				b = 0
			}
			if !(ys[i] < 6) {
				b = 0
			}
			dx.Data[lo+i] = math.Float32frombits(b)
		}
	})
	return dx
}

// Params implements Layer.
func (r *ReLU6) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU6) OutShape(in []int) []int { return in }

// Stats implements Layer.
func (r *ReLU6) Stats(in []int) Stats { return Stats{ActBytes: int64(shapeElems(in)) * 4} }

// Sigmoid is 1/(1+e^-x).
type Sigmoid struct {
	cachedY *tensor.Tensor
}

// NewSigmoid constructs a sigmoid activation.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// Forward applies the logistic function and caches the result for Backward.
func (s *Sigmoid) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := a.Alloc(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = sigmoid32(v)
	}
	s.cachedY = y
	return y
}

// Backward uses dy/dx = y(1-y).
func (s *Sigmoid) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if s.cachedY == nil {
		panic("nn: Sigmoid.Backward without Forward")
	}
	dx := a.Alloc(s.cachedY.Shape...)
	for i, y := range s.cachedY.Data {
		dx.Data[i] = grad.Data[i] * y * (1 - y)
	}
	return dx
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// OutShape implements Layer.
func (s *Sigmoid) OutShape(in []int) []int { return in }

// Stats implements Layer.
func (s *Sigmoid) Stats(in []int) Stats { return Stats{ActBytes: int64(shapeElems(in)) * 4} }

// SiLU (swish) is x·sigmoid(x), the activation EfficientNet uses.
type SiLU struct {
	cachedX, cachedSig *tensor.Tensor
}

// NewSiLU constructs a SiLU activation.
func NewSiLU() *SiLU { return &SiLU{} }

// Name implements Layer.
func (s *SiLU) Name() string { return "silu" }

// Forward computes x·σ(x) and caches x and σ(x) for Backward, so that each
// element's exponential is taken once a step.
func (s *SiLU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y, sig := a.Alloc(x.Shape...), a.Alloc(x.Shape...)
	for i, v := range x.Data {
		sg := sigmoid32(v)
		sig.Data[i] = sg
		y.Data[i] = v * sg
	}
	s.cachedX, s.cachedSig = x, sig
	return y
}

// Backward uses d/dx[xσ(x)] = σ(x)(1 + x(1-σ(x))), with Forward's σ(x).
func (s *SiLU) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if s.cachedX == nil {
		panic("nn: SiLU.Backward without Forward")
	}
	dx := a.Alloc(s.cachedX.Shape...)
	for i, v := range s.cachedX.Data {
		sg := s.cachedSig.Data[i]
		dx.Data[i] = grad.Data[i] * sg * (1 + v*(1-sg))
	}
	return dx
}

// Params implements Layer.
func (s *SiLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (s *SiLU) OutShape(in []int) []int { return in }

// Stats implements Layer.
func (s *SiLU) Stats(in []int) Stats { return Stats{ActBytes: int64(shapeElems(in)) * 4} }
