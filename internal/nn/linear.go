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

// Forward computes the affine map for a [N, In] batch.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := batchOf(x, "Linear")
	if x.Rank() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N %d], got %v", l.In, x.Shape))
	}
	if train {
		l.cachedX = x
	} else {
		l.cachedX = nil
	}
	y := tensor.MatMulT(x, l.Weight.W) // [N, Out]
	if l.useBias {
		for i := 0; i < n; i++ {
			row := y.Row(i)
			for j := range row {
				row[j] += l.Bias.W.Data[j]
			}
		}
	}
	return y
}

// Backward accumulates the parameter gradients (BackwardParams) and returns
// dx = grad W.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.BackwardParams(grad)
	// dx[N,in] = grad[N,out] @ W[out,in]
	return tensor.MatMul(grad, l.Weight.W)
}

// BackwardParams accumulates dW = gradᵀ x and db = Σ grad and computes no
// input gradient: all of Backward a caller needs when nothing upstream of the
// layer learns (the manifold FC on frozen CNN features). dW runs on the dense
// blocked GEMM (TransposeMatMulInto) with pooled workspaces: unlike the
// retraining update matrices, softmax gradients are dense, so the zero-skip
// scalar TransposeMatMul has nothing to skip.
func (l *Linear) BackwardParams(grad *tensor.Tensor) {
	if l.cachedX == nil {
		panic("nn: Linear.Backward without Forward(train=true)")
	}
	// dW[out,in] += gradᵀ[out,N] @ x[N,in]
	dwBuf := tensor.GetFloats(l.Out * l.In)
	scratch := tensor.GetFloats(grad.Len())
	dw := tensor.FromSlice(dwBuf, l.Out, l.In)
	tensor.TransposeMatMulInto(dw, grad, l.cachedX, scratch)
	tensor.Accumulate(l.Weight.Grad.Data, dwBuf)
	tensor.PutFloats(scratch)
	tensor.PutFloats(dwBuf)
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
