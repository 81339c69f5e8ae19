// Package manifold implements NSHD's learning-driven feature compression
// (Sec. IV-C / V-C): a max-pool with window 2 followed by a fully-connected
// regressor Ψ: R^F → R^F̂ that maps convolution-extracted features with
// extreme dimensionality into a small, information-preserving feature vector
// before HD encoding.
//
// The layer is trained without touching the CNN: class-hypervector errors
// are decoded through the HD encoder (binding with the projection
// hypervectors P, a straight-through estimator standing in for sign) into
// the manifold output space, and ordinary backpropagation updates the FC
// weights (see core.Pipeline).
package manifold

import (
	"fmt"

	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// Learner is the manifold layer Ψ.
type Learner struct {
	// InShape is the per-sample output shape [C, H, W] of the feature
	// extractor the learner compresses.
	InShape []int
	// FHat is the compressed feature dimension (the paper sets 100 and
	// notes it should be at least the number of classes).
	FHat int
	// PooledF is the flattened dimension after max pooling.
	PooledF int

	pool *nn.MaxPool2D // nil when the input is too small to pool
	fc   *nn.Linear
}

// New constructs a manifold learner for features of the given shape.
func New(rng *tensor.RNG, inShape []int, fhat int) (*Learner, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("manifold: input shape %v, want [C H W]", inShape)
	}
	if fhat < 1 {
		return nil, fmt.Errorf("manifold: F̂ = %d must be positive", fhat)
	}
	l := &Learner{InShape: append([]int(nil), inShape...), FHat: fhat}
	c, h, w := inShape[0], inShape[1], inShape[2]
	ph, pw := h, w
	if h >= 2 && w >= 2 {
		l.pool = nn.NewMaxPool2D(2)
		ph, pw = h/2, w/2
	}
	l.PooledF = c * ph * pw
	l.fc = nn.NewLinear(rng, l.PooledF, fhat, true)
	return l, nil
}

// CheckClasses warns (by error) when F̂ violates the paper's guidance of
// being at least the class count (Sec. VII-A).
func (l *Learner) CheckClasses(classes int) error {
	if l.FHat < classes {
		return fmt.Errorf("manifold: F̂=%d smaller than %d classes; the paper requires F̂ ≥ classes", l.FHat, classes)
	}
	return nil
}

// Forward compresses a [N, C, H, W] feature batch to [N, F̂]: Pooled, then
// the FC — its training pass on a fresh arena when train is set, caching the
// input for a following Backward (ForwardPooled), else InferPooled.
func (l *Learner) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return l.ForwardPooled(tensor.NewArena(), l.Pooled(x))
	}
	return l.InferPooled(l.Pooled(x))
}

// Pooled is the learner's parameter-free half: the 2×2 max-pool (skipped on
// a feature map too small to pool) and the flatten, [N, C, H, W] → [N,
// PooledF], the pool run by nn.Infer. It depends on nothing that training
// changes, so a caller that trains on fixed features computes it once and
// feeds ForwardPooled or InferPooled.
func (l *Learner) Pooled(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("manifold: Forward expects [N C H W], got %v", x.Shape))
	}
	y := x
	if l.pool != nil {
		y = nn.Infer(l.pool, y, 0)
	}
	return y.Reshape(x.Shape[0], l.PooledF)
}

// InferPooled is the learned half's eval pass, [N, PooledF] → [N, F̂], the
// FC run by nn.Infer.
func (l *Learner) InferPooled(pooled *tensor.Tensor) *tensor.Tensor {
	return nn.Infer(l.fc, pooled, 0)
}

// ForwardPooled is the learned half's training pass, [N, PooledF] → [N, F̂]:
// the FC's nn.Layer Forward, its output and input cache in the arena a, for
// a training loop that Resets a per step. Backward is its backward pass.
func (l *Learner) ForwardPooled(a *tensor.Arena, pooled *tensor.Tensor) *tensor.Tensor {
	return l.fc.Forward(a, pooled)
}

// ForwardInfer is the serving-side Forward: state-free, serial but for an
// FC over 1 MiB of weights, which nn.Linear splits by columns on a prebound
// Call, and allocating only from the caller's arena (see nn.Layer). It
// matches Forward(x, false) bit-for-bit.
func (l *Learner) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("manifold: ForwardInfer expects [N C H W], got %v", x.Shape))
	}
	y := x
	if l.pool != nil {
		y = l.pool.ForwardInfer(y, ar)
	}
	y = ar.Wrap(y.Data, y.Shape[0], l.PooledF)
	return l.fc.ForwardInfer(y, ar)
}

// Backward accumulates dL/d(output) ([N, F̂]) into the FC parameters, its
// workspaces from a. It is parameter-only: the learner sits on a frozen CNN,
// so no gradient with respect to the features is computed.
func (l *Learner) Backward(a *tensor.Arena, grad *tensor.Tensor) {
	l.fc.BackwardParams(a, grad)
}

// Params exposes the learnable parameters (the FC weights and bias).
func (l *Learner) Params() []*nn.Param {
	return l.fc.Params()
}

// ZeroGrad clears parameter gradients.
func (l *Learner) ZeroGrad() {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}

// Stats reports per-sample inference cost: pooling is free under the MAC
// convention; the FC contributes PooledF·F̂ MACs. This saving is the subject
// of Fig. 5.
func (l *Learner) Stats() nn.Stats {
	s := l.fc.Stats([]int{l.PooledF})
	s.ActBytes += int64(l.PooledF) * 4
	return s
}
