package nn

import (
	"math"
	"testing"

	"nshd/internal/tensor"
)

// lossOf runs the training forward pass and reduces the output with a
// fixed random projection so the scalar loss exercises every output element.
func lossOf(l Layer, x *tensor.Tensor, probe []float32) float64 {
	y := l.Forward(tensor.NewArena(), x)
	var s float64
	for i, v := range y.Data {
		s += float64(v) * float64(probe[i%len(probe)]) * float64(1+i%3)
	}
	return s
}

// gradCheck verifies Backward against central finite differences, both for
// the input gradient and for every parameter gradient.
func gradCheck(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(99)
	probe := make([]float32, 64)
	for i := range probe {
		probe[i] = float32(rng.NormFloat64())
	}

	// Analytic gradients.
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	y := l.Forward(tensor.NewArena(), x)
	gout := tensor.New(y.Shape...)
	for i := range gout.Data {
		gout.Data[i] = probe[i%len(probe)] * float32(1+i%3)
	}
	dx := l.Backward(tensor.NewArena(), gout)

	const eps = 1e-2
	// Input gradient check on a sample of positions.
	for _, idx := range sampleIdx(x.Len(), 12) {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		lp := lossOf(l, x, probe)
		x.Data[idx] = orig - eps
		lm := lossOf(l, x, probe)
		x.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(dx.Data[idx])
		if !closeGrad(got, want, tol) {
			t.Errorf("%s: input grad[%d] = %.5g, finite diff %.5g", l.Name(), idx, got, want)
		}
	}
	// Parameter gradient check.
	for _, p := range l.Params() {
		// Re-capture analytic grads (they were accumulated above).
		for _, idx := range sampleIdx(p.W.Len(), 8) {
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + eps
			lp := lossOf(l, x, probe)
			p.W.Data[idx] = orig - eps
			lm := lossOf(l, x, probe)
			p.W.Data[idx] = orig
			want := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data[idx])
			if !closeGrad(got, want, tol) {
				t.Errorf("%s: param %s grad[%d] = %.5g, finite diff %.5g", l.Name(), p.Name, idx, got, want)
			}
		}
	}
}

func closeGrad(got, want, tol float64) bool {
	diff := math.Abs(got - want)
	scale := math.Max(math.Max(math.Abs(got), math.Abs(want)), 1)
	return diff/scale <= tol
}

func sampleIdx(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, k)
	step := n / k
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

func randInput(seed int64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	gradCheck(t, NewLinear(rng, 7, 5, true), randInput(2, 3, 7), 1e-2)
}

func TestLinearNoBiasGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	gradCheck(t, NewLinear(rng, 4, 6, false), randInput(3, 2, 4), 1e-2)
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	gradCheck(t, NewConv2D(rng, 2, 3, 3, 1, 1, true), randInput(5, 2, 2, 5, 5), 2e-2)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	gradCheck(t, NewConv2D(rng, 3, 4, 3, 2, 1, false), randInput(7, 2, 3, 6, 6), 2e-2)
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	gradCheck(t, NewDepthwiseConv2D(rng, 3, 3, 1, 1), randInput(9, 2, 3, 5, 5), 2e-2)
}

func TestDepthwiseConvStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	gradCheck(t, NewDepthwiseConv2D(rng, 2, 3, 2, 1), randInput(11, 2, 2, 6, 6), 2e-2)
}

func TestReLUGradients(t *testing.T) {
	gradCheck(t, NewReLU(), randInput(12, 4, 9), 1e-2)
}

func TestSigmoidGradients(t *testing.T) {
	gradCheck(t, NewSigmoid(), randInput(14, 3, 6), 1e-2)
}

func TestSiLUGradients(t *testing.T) {
	gradCheck(t, NewSiLU(), randInput(15, 3, 6), 1e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	gradCheck(t, NewGlobalAvgPool2D(), randInput(17, 2, 3, 4, 4), 1e-2)
}

func TestSEBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(18)
	gradCheck(t, NewSEBlock(rng, 4, 2), randInput(19, 2, 4, 3, 3), 2e-2)
}

func TestResidualIdentityGradients(t *testing.T) {
	rng := tensor.NewRNG(20)
	body := NewSequential("body",
		NewConv2D(rng, 2, 2, 3, 1, 1, true),
		NewSiLU(),
	)
	gradCheck(t, NewResidual(body, nil), randInput(21, 2, 2, 4, 4), 2e-2)
}

func TestResidualProjGradients(t *testing.T) {
	rng := tensor.NewRNG(22)
	body := NewSequential("body",
		NewConv2D(rng, 2, 3, 3, 1, 1, true),
		NewSiLU(),
	)
	proj := NewConv2D(rng, 2, 3, 1, 1, 0, false)
	gradCheck(t, NewResidual(body, proj), randInput(23, 2, 2, 4, 4), 2e-2)
}

func TestBatchNormGradients(t *testing.T) {
	// BatchNorm mixes samples within the batch, so finite differences over a
	// shared forward still hold; use a slightly looser tolerance.
	bn := NewBatchNorm2D(3)
	gradCheck(t, bn, randInput(24, 4, 3, 3, 3), 5e-2)
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	// Finite differences are unreliable at max boundaries; instead verify the
	// subgradient routing property directly.
	mp := NewMaxPool2D(2)
	x := randInput(25, 1, 1, 4, 4)
	y := mp.Forward(tensor.NewArena(), x)
	g := tensor.New(y.Shape...)
	g.Fill(1)
	dx := mp.Backward(tensor.NewArena(), g)
	// Each 2x2 window must route exactly one unit of gradient.
	var total float32
	nonzero := 0
	for _, v := range dx.Data {
		total += v
		if v != 0 {
			nonzero++
		}
	}
	if total != 4 || nonzero != 4 {
		t.Fatalf("maxpool grad routing: total=%v nonzero=%d, want 4 and 4", total, nonzero)
	}
	// The routed positions must be the argmax positions.
	for oh := 0; oh < 2; oh++ {
		for ow := 0; ow < 2; ow++ {
			var best float32
			bestAt := -1
			for kh := 0; kh < 2; kh++ {
				for kw := 0; kw < 2; kw++ {
					idx := (oh*2+kh)*4 + (ow*2 + kw)
					if bestAt < 0 || x.Data[idx] > best {
						best, bestAt = x.Data[idx], idx
					}
				}
			}
			if dx.Data[bestAt] != 1 {
				t.Fatalf("gradient not routed to argmax at window (%d,%d)", oh, ow)
			}
		}
	}
}

func TestSequentialGradientsEndToEnd(t *testing.T) {
	rng := tensor.NewRNG(26)
	model := NewSequential("tiny",
		NewConv2D(rng, 1, 2, 3, 1, 1, true),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewLinear(rng, 2*2*2, 3, true),
	)
	x := randInput(27, 2, 1, 4, 4)
	labels := []int{0, 2}
	zeroGrads(model.Params())
	logits := model.Forward(tensor.NewArena(), x)
	_, grad := CrossEntropy(tensor.NewArena(), logits, labels)
	model.Backward(tensor.NewArena(), grad)

	// Finite-difference a few weights of the first conv through the whole
	// network + loss.
	conv := model.Layers[0].(*Conv2D)
	const eps = 1e-2
	for _, idx := range sampleIdx(conv.Weight.W.Len(), 5) {
		orig := conv.Weight.W.Data[idx]
		conv.Weight.W.Data[idx] = orig + eps
		lp, _ := CrossEntropy(tensor.NewArena(), model.Forward(tensor.NewArena(), x), labels)
		conv.Weight.W.Data[idx] = orig - eps
		lm, _ := CrossEntropy(tensor.NewArena(), model.Forward(tensor.NewArena(), x), labels)
		conv.Weight.W.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(conv.Weight.Grad.Data[idx])
		if !closeGrad(got, want, 3e-2) {
			t.Errorf("end-to-end conv grad[%d] = %.5g, finite diff %.5g", idx, got, want)
		}
	}
}
