package nn

import (
	"fmt"

	"nshd/internal/tensor"
)

// Linear is a fully-connected layer: y = x Wᵀ + b with W of shape [out, in].
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	useBias bool

	cachedX *tensor.Tensor
}

// NewLinear constructs a Linear layer with Xavier-uniform weights.
func NewLinear(rng *tensor.RNG, in, out int, bias bool) *Linear {
	l := &Linear{
		In:      in,
		Out:     out,
		Weight:  newParam(fmt.Sprintf("linear%dx%d.w", out, in), out, in),
		useBias: bias,
	}
	rng.XavierLinear(l.Weight.W)
	if bias {
		l.Bias = newParam(fmt.Sprintf("linear%dx%d.b", out, in), out)
	}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return fmt.Sprintf("linear(%d→%d)", l.In, l.Out) }

// Forward computes the affine map for a [N, In] batch and caches x for
// Backward.
func (l *Linear) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "Linear")
	if x.Rank() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N %d], got %v", l.In, x.Shape))
	}
	l.cachedX = x
	y := a.Alloc(n, l.Out)
	tensor.MatMulTInto(y, x, l.Weight.W)
	l.addBias(y)
	return y
}

// addBias adds the bias, if any, to every row of y.
func (l *Linear) addBias(y *tensor.Tensor) {
	if l.useBias {
		tensor.AddRows(y.Data, l.Out, l.Bias.W.Data, 0, l.Out, y.Shape[0])
	}
}

// Backward accumulates the parameter gradients (BackwardParams) and returns
// dx = grad W.
func (l *Linear) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	l.BackwardParams(a, grad)
	// dx[N,in] = grad[N,out] @ W[out,in]
	dx := a.Alloc(grad.Shape[0], l.In)
	m := a.Mark()
	tensor.MatMulScratchInto(dx, grad, l.Weight.W, a.Floats(tensor.MatMulScratch(grad.Shape[0], l.In, l.Out)))
	a.Release(m)
	return dx
}

// BackwardParams accumulates dW = gradᵀ x and db = Σ grad and computes no
// input gradient: all of Backward a caller needs when nothing upstream of the
// layer learns (the manifold FC on frozen CNN features). dW runs on the dense
// blocked GEMM (tensor.TransposeMatMulAccInto) with gradᵀ, its jobs' panel
// buffers and, for a batch over one K block, the product in workspaces from
// a; within one K block the product is added to Weight.Grad in place. db
// adds grad's rows in order, as a loop over them would.
func (l *Linear) BackwardParams(a *tensor.Arena, grad *tensor.Tensor) {
	if l.cachedX == nil {
		panic("nn: Linear.Backward without Forward")
	}
	n := grad.Shape[0]
	m := a.Mark()
	tensor.TransposeMatMulAccInto(l.Weight.Grad, grad, l.cachedX, a.Floats(tensor.TransposeMatMulAccScratch(l.Out, l.In, n)))
	a.Release(m)
	if l.useBias {
		tensor.AddRows(l.Bias.Grad.Data, 0, grad.Data, l.Out, l.Out, n)
	}
}

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.useBias {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) []int {
	if shapeElems(in) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d) given input shape %v", l.In, in))
	}
	return []int{l.Out}
}

// Stats implements Layer.
func (l *Linear) Stats(in []int) Stats {
	p := int64(l.In * l.Out)
	if l.useBias {
		p += int64(l.Out)
	}
	return Stats{MACs: int64(l.In) * int64(l.Out), Params: p, ActBytes: int64(l.Out) * 4}
}
