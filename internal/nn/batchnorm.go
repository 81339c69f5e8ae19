package nn

import (
	"fmt"
	"math"

	"nshd/internal/tensor"
)

// BatchNorm2D normalizes each channel of a [N, C, H, W] batch to zero mean
// and unit variance using batch statistics during training and running
// statistics during inference, then applies a learnable affine (γ, β).
type BatchNorm2D struct {
	C        int
	Eps      float32
	Momentum float32

	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor

	// backward caches
	cachedXhat *tensor.Tensor
	cachedStd  []float32
	cachedN    int
	cachedHW   int
}

// NewBatchNorm2D constructs a batch-norm layer over c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:   newParam(fmt.Sprintf("bn%d.gamma", c), c),
		Beta:    newParam(fmt.Sprintf("bn%d.beta", c), c),
		RunMean: tensor.New(c),
		RunVar:  tensor.New(c),
	}
	bn.Gamma.W.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return fmt.Sprintf("batchnorm(%d)", bn.C) }

// Forward normalizes a training batch per channel with its own statistics,
// folds them into the running statistics, and caches what Backward needs.
// Eval passes normalize with the running statistics (ForwardInfer).
func (bn *BatchNorm2D) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "BatchNorm2D")
	if x.Rank() != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D(%d) expects [N %d H W], got %v", bn.C, bn.C, x.Shape))
	}
	h, w := x.Shape[2], x.Shape[3]
	hw := h * w
	y := a.Alloc(x.Shape...)
	xhat := a.Alloc(x.Shape...)
	std := a.Floats(bn.C)
	cnt := float64(n * hw)
	// Channels are fully independent (disjoint reads of x, disjoint writes to
	// y/xhat/std and the running stats), so the per-channel loop parallelizes
	// with bit-identical results regardless of worker scheduling.
	parallelFor(bn.C, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			var sum float64
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * hw
				for j := 0; j < hw; j++ {
					sum += float64(x.Data[base+j])
				}
			}
			mean := float32(sum / cnt)
			var vs float64
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * hw
				for j := 0; j < hw; j++ {
					d := float64(x.Data[base+j] - mean)
					vs += d * d
				}
			}
			variance := float32(vs / cnt)
			std[ch] = float32(math.Sqrt(float64(variance + bn.Eps)))
			invStd := 1 / std[ch]
			g, b := bn.Gamma.W.Data[ch], bn.Beta.W.Data[ch]
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * hw
				for j := 0; j < hw; j++ {
					xh := (x.Data[base+j] - mean) * invStd
					xhat.Data[base+j] = xh
					y.Data[base+j] = g*xh + b
				}
			}
			bn.RunMean.Data[ch] = (1-bn.Momentum)*bn.RunMean.Data[ch] + bn.Momentum*mean
			bn.RunVar.Data[ch] = (1-bn.Momentum)*bn.RunVar.Data[ch] + bn.Momentum*variance
		}
	})
	bn.cachedXhat = xhat
	bn.cachedStd = std
	bn.cachedN = n
	bn.cachedHW = hw
	return y
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm2D) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	if bn.cachedXhat == nil {
		panic("nn: BatchNorm2D.Backward without Forward")
	}
	n, hw := bn.cachedN, bn.cachedHW
	m := float32(n * hw)
	dx := a.Alloc(grad.Shape...)
	// Per-channel gradients are independent; see Forward for the determinism
	// argument.
	parallelFor(bn.C, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			var sumDy, sumDyXhat float64
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * hw
				for j := 0; j < hw; j++ {
					dy := float64(grad.Data[base+j])
					sumDy += dy
					sumDyXhat += dy * float64(bn.cachedXhat.Data[base+j])
				}
			}
			bn.Beta.Grad.Data[ch] += float32(sumDy)
			bn.Gamma.Grad.Data[ch] += float32(sumDyXhat)
			g := bn.Gamma.W.Data[ch]
			invStd := 1 / bn.cachedStd[ch]
			for i := 0; i < n; i++ {
				base := (i*bn.C + ch) * hw
				for j := 0; j < hw; j++ {
					dy := grad.Data[base+j]
					xh := bn.cachedXhat.Data[base+j]
					dx.Data[base+j] = g * invStd / m * (m*dy - float32(sumDy) - xh*float32(sumDyXhat))
				}
			}
		}
	})
	return dx
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutShape implements Layer.
func (bn *BatchNorm2D) OutShape(in []int) []int { return in }

// Stats implements Layer. The affine fold counts as one MAC per element at
// inference (scale+shift fused), matching how DPU-style accelerators fold BN
// into the preceding convolution.
func (bn *BatchNorm2D) Stats(in []int) Stats {
	elems := int64(shapeElems(in))
	return Stats{MACs: elems, Params: int64(2 * bn.C), ActBytes: elems * 4}
}
