package nn

import (
	"math"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and clears nothing; call
	// ZeroGrad on the model between batches.
	Step(params []*Param)
}

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param]*tensor.Tensor)}
}

// Step implements Optimizer. Each parameter is split over the pool; the
// update is elementwise, so any split gives the same bits. The update runs
// on tensor.SGDStep's vector kernels.
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		v := o.velocity[p]
		if v == nil {
			v = tensor.New(p.W.Shape...)
			o.velocity[p] = v
		}
		parallel.For(len(p.W.Data), elemGrain, func(lo, hi int) {
			tensor.SGDStep(p.W.Data[lo:hi], p.Grad.Data[lo:hi], v.Data[lo:hi], lr, mu, wd)
		})
	}
}

// Adam is the Adam optimizer with bias correction and no weight decay.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam constructs Adam with the usual defaults for unset betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}
}

// Step implements Optimizer. As in SGD.Step, each parameter is split over the
// pool and the update is elementwise, so any split gives the same bits. The
// update runs on tensor.AdamStep's vector kernels.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			v = tensor.New(p.W.Shape...)
			o.m[p] = m
			o.v[p] = v
		}
		parallel.For(len(p.W.Data), elemGrain, func(lo, hi int) {
			tensor.AdamStep(p.W.Data[lo:hi], p.Grad.Data[lo:hi], m.Data[lo:hi], v.Data[lo:hi], o.LR, o.Eps, bc1, bc2, b1, b2, 0)
		})
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm.
//
// The sum of squares is one float64 chain over every gradient element in
// parameter order, on one core (2.4–3.1 ms of a VGG16/4 step at batch 32).
// Partial sums per pool task would add the same squares in another order, and
// float64 addition is not associative: the norm, and with it the scale and
// every clipped gradient, would move bits. A split needs its own pinned
// training constants.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// StepDecay returns a learning-rate schedule that starts at base and decays
// by factor every stepEpochs epochs — the classic CNN schedule.
func StepDecay(base, factor float64, stepEpochs int) func(epoch int) float64 {
	return func(epoch int) float64 {
		lr := base
		for e := stepEpochs; e < epoch; e += stepEpochs {
			lr *= factor
		}
		return lr
	}
}
