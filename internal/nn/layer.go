// Package nn is a from-scratch neural-network substrate: layers with forward
// and backward passes, losses, optimizers and serialization. It exists so
// that NSHD's CNN feature extractors, teacher models and manifold learner can
// be trained and cut without any external deep-learning framework.
//
// Tensors flow through layers batched: image layers take [N, C, H, W] and
// dense layers take [N, F]. Forward is the training pass: each layer caches
// what its backward pass needs; Backward must be called in reverse layer order
// with the gradient of the loss w.r.t. the layer output and returns the
// gradient w.r.t. the layer input. Every eval pass runs the inference plan
// instead (ForwardInfer, batched by Infer).
package nn

import (
	"fmt"
	"slices"

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

// Layer is a differentiable network stage.
type Layer interface {
	// Name returns a short human-readable identifier ("conv3x3(64)").
	Name() string
	// Forward computes the layer output for a training batch: it caches
	// intermediates for Backward and uses batch statistics where
	// applicable (BatchNorm). Eval passes run ForwardInfer (see Infer).
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/dout and returns dL/din, accumulating
	// parameter gradients. Must follow a Forward call.
	Backward(grad *tensor.Tensor) *tensor.Tensor
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
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor { return s.forwardIn(nil, x) }

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor { return s.backwardIn(nil, grad) }

// arenaLayer is a layer whose passes can take every buffer they need —
// output, input gradient, backward cache, per-task workspace — from an
// arena instead of the heap. Trainer.Fit runs these paths on one arena,
// Reset per step: after its first step has sized the arena, a training step
// reuses the same memory. The buffers are
// not zeroed, so every kernel overwrites its output, and the two that
// accumulate (the input gradients of Conv2D and MaxPool2D) clear each sample
// range in the task that owns it. The exported Forward and Backward are these
// paths with a nil arena: results fresh from the heap, which the caller owns,
// and transients from the float pool, as before (alloc, scratch, release).
type arenaLayer interface {
	forwardIn(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor
	backwardIn(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor
}

// forwardIn is Forward with the arena layers' buffers taken from a; a layer
// without an arena path runs its Forward.
func (s *Sequential) forwardIn(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		if al, ok := l.(arenaLayer); ok {
			x = al.forwardIn(a, x)
		} else {
			x = l.Forward(x)
		}
	}
	return x
}

// backwardIn is Backward with the arena layers' buffers taken from a.
func (s *Sequential) backwardIn(a *tensor.Arena, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = layerBackwardIn(a, s.Layers[i], grad)
	}
	return grad
}

func layerBackwardIn(a *tensor.Arena, l Layer, grad *tensor.Tensor) *tensor.Tensor {
	if al, ok := l.(arenaLayer); ok {
		return al.backwardIn(a, grad)
	}
	return l.Backward(grad)
}

// ForwardIn is l's training Forward with the buffers of an arena layer taken
// from a, as Trainer.Fit runs it: for a caller that trains a layer in a loop
// of its own on one arena, Reset per step. BackwardParamsIn is its backward
// pass for the parameter gradients alone (all of it, for a layer without
// that path). The results live in a until its next Reset.
func ForwardIn(a *tensor.Arena, l Layer, x *tensor.Tensor) *tensor.Tensor {
	if al, ok := l.(arenaLayer); ok {
		return al.forwardIn(a, x)
	}
	return l.Forward(x)
}

// BackwardParamsIn: see ForwardIn.
func BackwardParamsIn(a *tensor.Arena, l Layer, grad *tensor.Tensor) {
	if pl, ok := l.(paramsLayer); ok {
		pl.backwardParamsIn(a, grad)
		return
	}
	layerBackwardIn(a, l, grad)
}

// paramsLayer is an arena layer that can run its backward pass for the
// parameter gradients alone: Linear, and Conv2D. Fit's first layer has no
// upstream layer to hand an input gradient to.
type paramsLayer interface {
	backwardParamsIn(a *tensor.Arena, grad *tensor.Tensor)
}

// backwardParamsIn is backwardIn for a caller that discards the input
// gradient: every layer runs as in backwardIn but the first, which computes
// only its parameter gradients where it can (paramsLayer) — the same bits,
// without the product whose result nobody reads.
func (s *Sequential) backwardParamsIn(a *tensor.Arena, grad *tensor.Tensor) {
	for i := len(s.Layers) - 1; i >= 1; i-- {
		grad = layerBackwardIn(a, s.Layers[i], grad)
	}
	if len(s.Layers) == 0 {
		return
	}
	if pl, ok := s.Layers[0].(paramsLayer); ok {
		pl.backwardParamsIn(a, grad)
	} else {
		layerBackwardIn(a, s.Layers[0], grad)
	}
}

// alloc returns a result tensor: uninitialized from a, or zeroed from the
// heap when a is nil.
func alloc(a *tensor.Arena, shape ...int) *tensor.Tensor {
	if a == nil {
		return tensor.New(slices.Clone(shape)...) // the clone, not shape, escapes
	}
	return a.Alloc(shape...)
}

// scratch returns n floats of undefined contents for a transient of one
// pass: from a after the pass's mark, or from the float pool when a is nil.
// release(a, m, bufs...) ends them: it rewinds a to the mark m, or returns
// bufs to the pool.
func scratch(a *tensor.Arena, n int) []float32 {
	if a == nil {
		return tensor.GetFloats(n)
	}
	return a.Floats(n)
}

func mark(a *tensor.Arena) tensor.ArenaMark {
	if a == nil {
		return tensor.ArenaMark{}
	}
	return a.Mark()
}

func release(a *tensor.Arena, m tensor.ArenaMark, bufs ...[]float32) {
	if a != nil {
		a.Release(m)
		return
	}
	for _, b := range bufs {
		tensor.PutFloats(b)
	}
}

// forTasks runs body over the items [0, n) on the pool, cut into at most
// loadBalance tasks per worker of contiguous, near-equal item ranges, and
// hands each task its own wsLen-float scratch workspace, which ends when
// forTasks returns. Which items share a task decides nothing but which
// workspace they use: callers compute each item alone, so any cut gives the
// same bits.
func forTasks(a *tensor.Arena, n, wsLen int, body func(ws []float32, lo, hi int)) {
	tasks := min(n, loadBalance*parallel.Workers())
	if tasks <= 0 {
		return
	}
	m := mark(a)
	ws := scratch(a, tasks*wsLen)
	parallelFor(tasks, func(tlo, thi int) {
		for t := tlo; t < thi; t++ {
			body(ws[t*wsLen:][:wsLen], t*n/tasks, (t+1)*n/tasks)
		}
	})
	release(a, m, ws)
}

// loadBalance is forTasks' tasks per worker, the pool's own ratio: enough
// that a worker slowed by another process leaves its share to the others.
const loadBalance = 4

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

// Slice returns a new Sequential containing layers [0, end). The layers are
// shared, not copied: the slice views the same parameters as the original,
// which is exactly what NSHD's cut-CNN feature extractor requires (the
// teacher and the student share pretrained weights).
func (s *Sequential) Slice(end int) *Sequential {
	if end < 0 || end > len(s.Layers) {
		panic(fmt.Sprintf("nn: Slice end %d out of range [0,%d]", end, len(s.Layers)))
	}
	return &Sequential{Label: fmt.Sprintf("%s[:%d]", s.Label, end), Layers: s.Layers[:end]}
}

// ZeroGrad clears all parameter gradients on the pool, which splits their
// concatenation, in parameter order, into element ranges.
func (s *Sequential) ZeroGrad() {
	ps := s.Params()
	total := 0
	for _, p := range ps {
		total += len(p.Grad.Data)
	}
	tensor.ParallelForGrain(total, elemGrain, func(lo, hi int) {
		for _, p := range ps {
			g := p.Grad.Data
			if lo < len(g) && hi > 0 {
				clear(g[max(lo, 0):min(hi, len(g))])
			}
			lo, hi = lo-len(g), hi-len(g)
		}
	})
}

// ParamCount returns the total number of scalar learnable parameters.
func (s *Sequential) ParamCount() int64 {
	var n int64
	for _, p := range s.Params() {
		n += int64(p.W.Len())
	}
	return n
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
