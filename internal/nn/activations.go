package nn

import (
	"math"

	"nshd/internal/tensor"
)

// elemGrain is the fewest elements of an elementwise training sweep (an
// activation, an optimizer update) worth a pool task of their own: at a few
// bytes of traffic per element, smaller ranges lose to the dispatch.
const elemGrain = 1 << 14

// clampCopy returns clamp applied to a copy of x, range by range over the
// pool so each range is clamped while its copy is still in cache.
func clampCopy(x *tensor.Tensor, clamp func([]float32)) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	tensor.ParallelForGrain(len(y.Data), elemGrain, func(lo, hi int) {
		copy(y.Data[lo:hi], x.Data[lo:hi])
		clamp(y.Data[lo:hi])
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

// Forward clamps negatives to zero: a copy of x through ForwardInfer's kernel,
// so the two agree bit for bit (NaN passes through, -0 becomes +0).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := clampCopy(x, tensor.ReLUInPlace)
	r.cachedY = nil
	if train {
		r.cachedY = y
	}
	return y
}

// Backward zeroes gradients where the input was non-positive, read off the
// cached output: y > 0 exactly where x > 0, and a NaN gets no gradient.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.cachedY == nil {
		panic("nn: ReLU.Backward without Forward(train=true)")
	}
	y := r.cachedY
	dx := tensor.New(y.Shape...)
	tensor.ParallelForGrain(len(y.Data), elemGrain, func(lo, hi int) {
		ys, gs := y.Data[lo:hi], grad.Data[lo:hi]
		for i, g := range gs {
			// A select on the gradient's bits, as in tensor/elem.go: the sign
			// of an activation is a coin flip to the branch predictor.
			b := math.Float32bits(g)
			if !(ys[i] > 0) {
				b = 0
			}
			dx.Data[lo+i] = math.Float32frombits(b)
		}
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

// Forward clamps to [0, 6] through ForwardInfer's kernel, bit for bit.
func (r *ReLU6) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := clampCopy(x, tensor.ClampReLU6InPlace)
	r.cachedY = nil
	if train {
		r.cachedY = y
	}
	return y
}

// Backward passes gradients only in the linear region, read off the cached
// output: 0 < y < 6 exactly where 0 < x < 6, and a NaN gets no gradient.
func (r *ReLU6) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.cachedY == nil {
		panic("nn: ReLU6.Backward without Forward(train=true)")
	}
	y := r.cachedY
	dx := tensor.New(y.Shape...)
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

// Forward applies the logistic function.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Map(sigmoid32)
	if train {
		s.cachedY = y
	} else {
		s.cachedY = nil
	}
	return y
}

// Backward uses dy/dx = y(1-y).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.cachedY == nil {
		panic("nn: Sigmoid.Backward without Forward(train=true)")
	}
	dx := tensor.New(s.cachedY.Shape...)
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
	cachedX *tensor.Tensor
}

// NewSiLU constructs a SiLU activation.
func NewSiLU() *SiLU { return &SiLU{} }

// Name implements Layer.
func (s *SiLU) Name() string { return "silu" }

// Forward computes x·σ(x).
func (s *SiLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		s.cachedX = x
	} else {
		s.cachedX = nil
	}
	return x.Map(func(v float32) float32 { return v * sigmoid32(v) })
}

// Backward uses d/dx[xσ(x)] = σ(x)(1 + x(1-σ(x))).
func (s *SiLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.cachedX == nil {
		panic("nn: SiLU.Backward without Forward(train=true)")
	}
	dx := tensor.New(s.cachedX.Shape...)
	for i, v := range s.cachedX.Data {
		sg := sigmoid32(v)
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
