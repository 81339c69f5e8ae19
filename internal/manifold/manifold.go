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
	// fcDown is the truncated-SVD down-projection of a factorized learner
	// (see Factorize); nil on an ordinary learner. When set, inference runs
	// fcDown then fc and the learner is frozen (Backward panics).
	fcDown *nn.Linear
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
// ForwardPooled.
func (l *Learner) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.ForwardPooled(l.Pooled(x), train)
}

// Pooled is the learner's parameter-free half: the 2×2 max-pool (skipped on
// a feature map too small to pool) and the flatten, [N, C, H, W] → [N,
// PooledF]. It depends on nothing that training changes, so a caller that
// trains on fixed features computes it once and feeds ForwardPooled.
func (l *Learner) Pooled(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("manifold: Forward expects [N C H W], got %v", x.Shape))
	}
	y := x
	if l.pool != nil {
		y = l.pool.Forward(y, false)
	}
	return y.Reshape(x.Shape[0], l.PooledF)
}

// ForwardPooled is the learned half, [N, PooledF] → [N, F̂]. Set train to
// cache the input for a following Backward.
func (l *Learner) ForwardPooled(pooled *tensor.Tensor, train bool) *tensor.Tensor {
	y := pooled
	if l.fcDown != nil {
		y = l.fcDown.Forward(y, false)
	}
	return l.fc.Forward(y, train)
}

// ForwardInfer is the serving-side Forward: state-free, serial, and
// allocating only from the caller's arena (see nn.InferenceLayer). It
// matches Forward(train=false) bit-for-bit.
func (l *Learner) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("manifold: ForwardInfer expects [N C H W], got %v", x.Shape))
	}
	y := x
	if l.pool != nil {
		y = l.pool.ForwardInfer(y, ar)
	}
	y = ar.Wrap(y.Data, y.Shape[0], l.PooledF)
	if l.fcDown != nil {
		y = l.fcDown.ForwardInfer(y, ar)
	}
	return l.fc.ForwardInfer(y, ar)
}

// Pool exposes the inference max pool (nil when the feature map is too small
// to pool) for a compiler that runs it apart from the FC: the engine's
// folded tail pools, then multiplies by the folded matrix.
func (l *Learner) Pool() *nn.MaxPool2D { return l.pool }

// FoldProjection algebraically folds the FC regressor into a following
// random projection P ([F̂, D]): since both maps are linear,
//
//	(x Wᵀ + b) P  =  x (Wᵀ P) + b P  =  x G + c,
//
// so a compiler can collapse manifold-FC → projection into one GEMM against
// G = Wᵀ·P ([PooledF, D]) plus the row vector c = b·P ([D]). The pool and
// flatten stay (max-pool is nonlinear), as does the sign AFTER the
// projection — the fold stops exactly at the first nonlinearity. Note the
// re-association: x(WᵀP) accumulates in a different order than (xWᵀ)P, so
// folded outputs are numerically close but not bit-identical; downstream
// argmax stability is the engine's documented contract for folded tails.
func (l *Learner) FoldProjection(p *tensor.Tensor) (g *tensor.Tensor, c []float32, err error) {
	if l == nil || l.fc == nil {
		return nil, nil, fmt.Errorf("manifold: FoldProjection on a nil/empty manifold")
	}
	if p == nil || p.Rank() != 2 || p.Shape[0] != l.FHat {
		return nil, nil, fmt.Errorf("manifold: FoldProjection projection shape mismatch (F̂=%d)", l.FHat)
	}
	w := l.fc.Weight.W // [F̂, PooledF]; [F̂, rank] when factorized
	g = tensor.TransposeMatMul(w, p)
	c = make([]float32, p.Shape[1])
	if l.fc.Bias != nil {
		bias := tensor.FromSlice(l.fc.Bias.W.Data, 1, l.FHat)
		tensor.MatMulInto(tensor.FromSlice(c, 1, len(c)), bias, p)
	}
	return g, c, nil
}

// Backward accumulates dL/d(output) ([N, F̂]) into the FC parameters. It is
// parameter-only: the learner sits on a frozen CNN, so no gradient with
// respect to the features is computed.
func (l *Learner) Backward(grad *tensor.Tensor) {
	if l.fcDown != nil {
		panic("manifold: Backward on a factorized (inference-only) learner")
	}
	l.fc.BackwardParams(grad)
}

// Params exposes the learnable parameters (the FC weights and bias; both
// factors of a factorized learner, for byte accounting).
func (l *Learner) Params() []*nn.Param {
	if l.fcDown != nil {
		return append(l.fcDown.Params(), l.fc.Params()...)
	}
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
	if l.fcDown != nil {
		s := l.fcDown.Stats([]int{l.PooledF})
		s.Add(l.fc.Stats([]int{l.fcDown.Out}))
		s.ActBytes += int64(l.PooledF) * 4
		return s
	}
	s := l.fc.Stats([]int{l.PooledF})
	s.ActBytes += int64(l.PooledF) * 4
	return s
}

// OutDim returns F̂.
func (l *Learner) OutDim() int { return l.FHat }
