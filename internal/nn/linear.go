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
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.forwardIn(nil, x)
}

func (l *Linear) forwardIn(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n := batchOf(x, "Linear")
	if x.Rank() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N %d], got %v", l.In, x.Shape))
	}
	l.cachedX = x
	y := alloc(a, n, l.Out)
	tensor.MatMulTInto(y, x, l.Weight.W)
	l.addBias(y)
	return y
}

// addBias adds the bias, if any, to every row of y.
func (l *Linear) addBias(y *tensor.Tensor) {
	if !l.useBias {
		return
	}
	for i := 0; i < y.Shape[0]; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += l.Bias.W.Data[j]
		}
	}
}

// Backward accumulates the parameter gradients (BackwardParams) and returns
// dx = grad W.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.backwardIn(nil, grad)
}

func (l *Linear) backwardIn(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	l.backwardParamsIn(a, grad)
	// dx[N,in] = grad[N,out] @ W[out,in]
	dx := alloc(a, grad.Shape[0], l.In)
	tensor.MatMulInto(dx, grad, l.Weight.W)
	return dx
}

// BackwardParams accumulates dW = gradᵀ x and db = Σ grad and computes no
// input gradient: all of Backward a caller needs when nothing upstream of the
// layer learns (the manifold FC on frozen CNN features). dW runs on the dense
// blocked GEMM (TransposeMatMulInto).
func (l *Linear) BackwardParams(grad *tensor.Tensor) {
	l.backwardParamsIn(nil, grad)
}

// backwardParamsIn is BackwardParams with its workspaces taken as scratch
// does.
func (l *Linear) backwardParamsIn(a *tensor.Arena, grad *tensor.Tensor) {
	if l.cachedX == nil {
		panic("nn: Linear.Backward without Forward")
	}
	// dW[out,in] += gradᵀ[out,N] @ x[N,in]
	m := mark(a)
	dwBuf, sc := scratch(a, l.Out*l.In), scratch(a, grad.Len())
	dw := tensor.FromSlice(dwBuf, l.Out, l.In)
	tensor.TransposeMatMulInto(dw, grad, l.cachedX, sc)
	tensor.Accumulate(l.Weight.Grad.Data, dwBuf)
	release(a, m, sc, dwBuf)
	if l.useBias {
		n := grad.Shape[0]
		for i := 0; i < n; i++ {
			row := grad.Row(i)
			for j, v := range row {
				l.Bias.Grad.Data[j] += v
			}
		}
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
