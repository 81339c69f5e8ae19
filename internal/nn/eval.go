package nn

import (
	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// Infer runs l's inference plan over the batch x and returns its output,
// [N, l.OutShape(sample shape)...], as heap memory the caller owns: the eval
// pass of PredictLogits, Evaluate, core's feature extraction and the
// manifold's pool. A Sequential over [C, H, W] samples is planned with
// FuseInference. The batch is cut into parts of at most batch samples (64
// when batch <= 0), their count rounded up to a multiple of the workers while
// every part keeps a sample, and the parts run as the serving engine's do:
// tasks of one parallel.Call, each on a worker arena from a freelist of one
// per worker (the first part measures it, Grow sizes it), its images copied
// in, since inference layers write in place. Samples are computed alone, so
// the cut moves no bit (see Layer).
func Infer(l Layer, x *tensor.Tensor, batch int) *tensor.Tensor {
	n := batchOf(x, "Infer")
	in := x.Shape[1:]
	out := tensor.New(append([]int{n}, l.OutShape(in)...)...)
	if n == 0 {
		return out
	}
	if s, ok := l.(*Sequential); ok && len(in) == 3 {
		l = FuseInference(s, in[0], in[1], in[2])
	}
	if batch <= 0 {
		batch = 64
	}
	w := parallel.Workers()
	parts := (n + batch - 1) / batch
	parts = max(parts, min((parts+w-1)/w*w, n))
	sampleIn, sampleOut := x.Len()/n, out.Len()/n
	arenas := parallel.NewFreelist(w, tensor.NewArena)
	parallel.NewCall(parts, func(p, _ int) {
		lo, hi := p*n/parts, (p+1)*n/parts
		ar := arenas.Get()
		defer arenas.Put(ar)
		xs := ar.Alloc(append([]int{hi - lo}, in...)...)
		copy(xs.Data, x.Data[lo*sampleIn:hi*sampleIn])
		copy(out.Data[lo*sampleOut:hi*sampleOut], l.ForwardInfer(xs, ar).Data)
		ar.Grow()
	}).Run()
	return out
}
