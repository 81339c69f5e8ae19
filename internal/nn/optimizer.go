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
	vs       []*tensor.Tensor // this step's velocities, in parameter order
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param]*tensor.Tensor)}
}

// Step implements Optimizer. One fan-out splits the concatenated parameters
// into element ranges; the update is elementwise, so any split gives the
// same bits. The update runs on tensor.SGDStep's vector kernels.
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	vs := paramState(o.velocity, params, o.vs)
	o.vs = vs
	parallel.For(paramLen(params), elemGrain, func(lo, hi int) {
		paramSpans(params, lo, hi, func(i, lo, hi int) {
			p := params[i]
			tensor.SGDStep(p.W.Data[lo:hi], p.Grad.Data[lo:hi], vs[i].Data[lo:hi], lr, mu, wd)
		})
	})
}

// paramState returns the state tensor of each of params in state, in parameter
// order, appended to buf[:0]; a parameter new to state gets zeros.
func paramState(state map[*Param]*tensor.Tensor, params []*Param, buf []*tensor.Tensor) []*tensor.Tensor {
	buf = buf[:0]
	for _, p := range params {
		t := state[p]
		if t == nil {
			t = tensor.New(p.W.Shape...)
			state[p] = t
		}
		buf = append(buf, t)
	}
	return buf
}

// Adam is the Adam optimizer with bias correction and no weight decay.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t      int
	m      map[*Param]*tensor.Tensor
	v      map[*Param]*tensor.Tensor
	ms, vs []*tensor.Tensor // this step's moments, in parameter order
}

// NewAdam constructs Adam with the usual defaults for unset betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}
}

// Step implements Optimizer. As in SGD.Step, one fan-out splits the
// concatenated parameters and the update is elementwise, so any split gives
// the same bits. The update runs on tensor.AdamStep's vector kernels.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
	ms, vs := paramState(o.m, params, o.ms), paramState(o.v, params, o.vs)
	o.ms, o.vs = ms, vs
	parallel.For(paramLen(params), elemGrain, func(lo, hi int) {
		paramSpans(params, lo, hi, func(i, lo, hi int) {
			p := params[i]
			tensor.AdamStep(p.W.Data[lo:hi], p.Grad.Data[lo:hi], ms[i].Data[lo:hi], vs[i].Data[lo:hi], o.LR, o.Eps, bc1, bc2, b1, b2, 0)
		})
	})
}

// clipBlock is the elements of one block sum of ClipGradNorm. It is fixed, so
// the blocked sum, and with it whether the certificate holds, does not depend
// on the worker count.
const clipBlock = 1 << 14

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm, with the bits of one serial float64
// chain of the squares in parameter order.
//
// The chain runs on one core (1.2–3.2 ms of a VGG16/4 step at batch 32), so
// the squares are summed in clipBlock-element blocks of the concatenated
// gradients on the pool, by tensor.SumSquares, the block sums held in a and
// added in block order. That sum p is in another order, but it certifies the
// chain's outcome (clipCertified): the gradients are clipped, and by the
// scale, exactly as the chain would. Where it cannot, and for a non-finite p,
// the chain runs after all. The returned norm is √p where the certificate
// held, within the certificate's bound of the chain's. The rescale is one
// fan-out over the gradients.
func ClipGradNorm(a *tensor.Arena, params []*Param, maxNorm float64) float64 {
	total := paramLen(params)
	sq := blockedSumSquares(a, params, total)
	if !clipCertified(sq, total, maxNorm) {
		sq = 0
		for _, p := range params {
			for _, g := range p.Grad.Data {
				sq += float64(g) * float64(g)
			}
		}
	}
	if clip, scale := clipScale(sq, maxNorm); clip {
		parallel.For(total, elemGrain, func(lo, hi int) {
			paramSpans(params, lo, hi, func(i, lo, hi int) {
				g := params[i].Grad.Data[lo:hi]
				for j := range g {
					g[j] *= scale
				}
			})
		})
	}
	return math.Sqrt(sq)
}

// blockedSumSquares is ClipGradNorm's sum p of the squares of the total
// gradient elements of params: clipBlock-element block sums on the pool,
// held in a, added in block order.
func blockedSumSquares(a *tensor.Arena, params []*Param, total int) float64 {
	m := a.Mark()
	defer a.Release(m)
	sums := a.Float64s((total + clipBlock - 1) / clipBlock)
	parallel.For(len(sums), 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			var s float64
			paramSpans(params, b*clipBlock, min((b+1)*clipBlock, total), func(i, lo, hi int) {
				s += tensor.SumSquares(params[i].Grad.Data[lo:hi])
			})
			sums[b] = s
		}
	})
	var sq float64
	for _, s := range sums {
		sq += s
	}
	return sq
}

// clipScale is ClipGradNorm's rule for a sum of squares sq: whether the
// gradients are clipped, and by which scale.
func clipScale(sq, maxNorm float64) (bool, float32) {
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		return true, float32(maxNorm / norm)
	}
	return false, 0
}

// clipCertified reports whether clipScale gives a sum p of n float64 squares
// of float32s, added in any order, the outcome it gives their serial chain.
// Each square is exact, so only the adds round: p and the chain each lie
// within γ(n−1)·S of the exact sum S, γ(k) = kε/(1 − kε) and ε = 2⁻⁵³
// (SumSquares), so the chain lies in [p(1−γ)/(1+γ), p(1+γ)/(1−γ)]; p·(1 ∓ u),
// u = 4(n+1)ε, brackets that interval with room for its own two roundings.
// √, the comparisons and maxNorm/√· are monotone in the sum and float32() in
// its argument, so where both ends of the bracket give one outcome every sum
// inside it does, the chain's among them. A squared float32 is normal in
// float64 and a sum of them never subnormal, so the relative bounds hold.
func clipCertified(p float64, n int, maxNorm float64) bool {
	if math.IsNaN(p) || math.IsInf(p, 0) || n > 1<<40 {
		return false
	}
	u := 4 * float64(n+1) * 0x1p-53
	c0, s0 := clipScale(p*(1-u), maxNorm)
	c1, s1 := clipScale(p*(1+u), maxNorm)
	return c0 == c1 && s0 == s1
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
