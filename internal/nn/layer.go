// Package nn is a from-scratch neural-network substrate: layers with forward
// and backward passes, losses, optimizers and serialization. It exists so
// that NSHD's CNN feature extractors, teacher models and manifold learner can
// be trained and cut without any external deep-learning framework.
//
// Tensors flow through layers batched: image layers take [N, C, H, W] and
// dense layers take [N, F]. Every layer keeps one contract, Layer: a training
// pair on an arena and a state-free eval pass, ForwardInfer (see Layer).
package nn

import (
	"fmt"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Stats summarizes the inference cost of a layer for a single sample:
// multiply-accumulate operations, learnable parameter count, and the bytes of
// activation output it produces (float32).
type Stats struct {
	MACs     int64
	Params   int64
	ActBytes int64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.MACs += o.MACs
	s.Params += o.Params
	s.ActBytes += o.ActBytes
}

// Layer is a differentiable network stage, and the package's one layer
// contract: every layer, containers included, implements all of it.
//
// Forward and Backward are the training pair. Forward computes the output
// of a training batch, caches what Backward needs and uses batch statistics
// where it has them (BatchNorm2D); Backward, called in reverse layer order
// after Forward, consumes dL/dout, accumulates the parameter gradients into
// Param.Grad and returns dL/din. Both take every output, input gradient,
// cache and workspace from the arena a, and the results live in a until its
// next Reset: Trainer.Fit runs a step on one arena, Reset per step, so after
// its first step has sized the arena a step reuses the same memory, and a
// fresh tensor.NewArena() gives heap memory a caller owns. Arena memory is
// not zeroed: every kernel overwrites its output, and a buffer that is
// accumulated into is cleared first by the task that owns it — the input
// gradients of Conv2D, DepthwiseConv2D and MaxPool2D, one sample range per
// task, and the per-chunk filter-gradient accumulators of the two
// convolutions.
//
// ForwardInfer is the eval pass. Infer runs it for PredictLogits, Evaluate,
// core's feature extraction and the manifold's pool, and the serving engine
// runs it on its compiled plan. It
//
//   - is state-free: it reads and writes no layer field, so one layer serves
//     many goroutines at once over frozen weights;
//   - allocates only from the caller's arena ar, so a frozen arena makes the
//     whole pass heap-free;
//   - runs on the calling goroutine: callers parallelize across the parts of
//     a batch. The one exception is a FusedBlock, which spreads its (sample,
//     tile) items over the pool with a parallel.Call — the only fan-out
//     allowed under an arena.
//
// Elementwise layers may overwrite x in place and return it; callers pass
// arena-owned activations, never model weights or user input. Each sample is
// computed alone, every element with the bits of the layer's definition on
// the serial kernels — a conv's per-sample column product W·cols, BatchNorm's
// affine map with the running statistics — so any cut of a batch, fused or
// not, gives the same bits, and so does Forward where it stacks no samples.
type Layer interface {
	// Name returns a short human-readable identifier ("conv3x3(64)").
	Name() string
	// Forward is the training pass (see the type's comment).
	Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor
	// Backward is Forward's backward pass (see the type's comment).
	Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor
	// ForwardInfer is the eval pass (see the type's comment).
	ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
	// OutShape maps a per-sample input shape (no batch dim) to the
	// per-sample output shape.
	OutShape(in []int) []int
	// Stats reports the per-sample inference cost for the input shape.
	Stats(in []int) Stats
}

// Sequential chains layers. It is the container used for every model in the
// zoo; cutting a CNN at layer k is slicing this container.
type Sequential struct {
	Label  string
	Layers []Layer
}

// NewSequential builds a sequential model from layers.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{Label: label, Layers: layers}
}

// Name returns the model label.
func (s *Sequential) Name() string { return s.Label }

// Forward runs all layers in order.
func (s *Sequential) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(a, x)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(a, grad)
	}
	return grad
}

// paramsLayer is a layer that can run its backward pass for the parameter
// gradients alone: Linear, and Conv2D. Fit's first layer has no upstream
// layer to hand an input gradient to.
type paramsLayer interface {
	BackwardParams(a *tensor.Arena, grad *tensor.Tensor)
}

// backwardParams is Backward for a caller that discards the input gradient:
// every layer runs as in Backward but the first, which computes only its
// parameter gradients where it can (paramsLayer) — the same bits, without
// the product whose result nobody reads.
func (s *Sequential) backwardParams(a *tensor.Arena, grad *tensor.Tensor) {
	for i := len(s.Layers) - 1; i >= 1; i-- {
		grad = s.Layers[i].Backward(a, grad)
	}
	if len(s.Layers) == 0 {
		return
	}
	if pl, ok := s.Layers[0].(paramsLayer); ok {
		pl.BackwardParams(a, grad)
	} else {
		s.Layers[0].Backward(a, grad)
	}
}

// forTasks runs body over the items [0, n) on the pool, cut into
// parallel.Tasks(n, 1) tasks of contiguous, near-equal item ranges, and
// hands each task its own wsLen-float workspace from a, which ends when
// forTasks returns. Which items share a task decides nothing but which
// workspace they use: callers compute each item alone, so any cut gives the
// same bits.
func forTasks(a *tensor.Arena, n, wsLen int, body func(ws []float32, lo, hi int)) {
	if n <= 0 {
		return
	}
	tasks := parallel.Tasks(n, 1)
	m := a.Mark()
	ws := a.Floats(tasks * wsLen)
	parallelFor(tasks, func(tlo, thi int) {
		for t := tlo; t < thi; t++ {
			body(ws[t*wsLen:][:wsLen], t*n/tasks, (t+1)*n/tasks)
		}
	})
	a.Release(m)
}

// Params returns the parameters of all layers, in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape composes the per-layer shape functions.
func (s *Sequential) OutShape(in []int) []int {
	for _, l := range s.Layers {
		in = l.OutShape(in)
	}
	return in
}

// Stats accumulates per-layer costs for the given input shape.
func (s *Sequential) Stats(in []int) Stats {
	var total Stats
	for _, l := range s.Layers {
		total.Add(l.Stats(in))
		in = l.OutShape(in)
	}
	return total
}

// StatsPerLayer returns each layer's cost alongside its output shape, for
// model inspection tools.
func (s *Sequential) StatsPerLayer(in []int) []Stats {
	out := make([]Stats, len(s.Layers))
	for i, l := range s.Layers {
		out[i] = l.Stats(in)
		in = l.OutShape(in)
	}
	return out
}

// zeroGrads clears the gradients of ps on the pool, which splits their
// concatenation, in parameter order, into element ranges.
func zeroGrads(ps []*Param) {
	total := 0
	for _, p := range ps {
		total += len(p.Grad.Data)
	}
	parallel.For(total, elemGrain, func(lo, hi int) {
		for _, p := range ps {
			g := p.Grad.Data
			if lo < len(g) && hi > 0 {
				clear(g[max(lo, 0):min(hi, len(g))])
			}
			lo, hi = lo-len(g), hi-len(g)
		}
	})
}

// batchOf panics unless x has at least 2 dims and returns the batch size.
func batchOf(x *tensor.Tensor, who string) int {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s requires a batched input, got shape %v", who, x.Shape))
	}
	return x.Shape[0]
}

func shapeElems(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}
