package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// inferTestModel exercises every layer type that has an inference path:
// conv (bias), batchnorm, relu, maxpool, depthwise conv, relu6, residual
// with identity skip, SE block, residual with projection, a second maxpool,
// silu, global-avg-pool is covered via SE; the head covers flatten, linear
// and sigmoid.
func inferTestModel(rng *tensor.RNG) *Sequential {
	body := NewSequential("body",
		NewDepthwiseConv2D(rng, 8, 3, 1, 1),
		NewBatchNorm2D(8),
		NewReLU6(),
	)
	projBody := NewSequential("projbody",
		NewConv2D(rng, 8, 8, 3, 2, 1, false),
		NewSiLU(),
	)
	return NewSequential("infer-test",
		NewConv2D(rng, 3, 8, 3, 1, 1, true),
		NewBatchNorm2D(8),
		NewReLU(),
		NewMaxPool2D(2),
		NewResidual(body, nil),
		NewSEBlock(rng, 8, 4),
		NewResidual(projBody, NewConv2D(rng, 8, 8, 1, 2, 0, false)),
		NewMaxPool2D(2),
		NewFlatten(),
		NewLinear(rng, 8*2*2, 10, true),
		NewSigmoid(),
	)
}

// randomizeEval gives batchnorm layers non-trivial running statistics so the
// eval path is actually exercised.
func randomizeEval(rng *tensor.RNG, model *Sequential) {
	for _, l := range model.Layers {
		if bn, ok := l.(*BatchNorm2D); ok {
			rng.FillUniform(bn.RunMean, -0.5, 0.5)
			rng.FillUniform(bn.RunVar, 0.5, 2)
			rng.FillUniform(bn.Gamma.W, 0.5, 1.5)
			rng.FillUniform(bn.Beta.W, -0.2, 0.2)
		}
		if r, ok := l.(*Residual); ok {
			randomizeEval(rng, r.Body)
		}
	}
}

// TestForwardInferMatchesEvalReference pins ForwardInfer bit-identical to
// evalReference: the whole test model, then lone unfused 3×3 convs at widths
// that are no multiple of 16, where the reference multiplies a materialized
// im2col matrix and ForwardInfer generates the same columns inside the GEMM
// (tensor.ConvMulSerialInto) or reads them in place in rows form — column
// matrices of 36 K to 729 K floats. It runs on the default kernels and again
// on the portable build's Go twins.
func TestForwardInferMatchesEvalReference(t *testing.T) {
	for _, w := range []struct {
		name string
		set  func(testing.TB)
	}{{"default", func(testing.TB) {}}, {"portable", tensortest.Portable}} {
		t.Run(w.name, func(t *testing.T) {
			w.set(t)
			rng := tensor.NewRNG(42)
			model := inferTestModel(rng)
			randomizeEval(rng, model)
			x := tensor.New(5, 3, 16, 16)
			rng.FillNormal(x, 0, 1)
			sameBits(t, "test model", inferOnce(model, x), evalReference(model, x), false)

			for _, s := range []struct{ c, hw int }{{64, 8}, {64, 24}, {32, 40}, {16, 72}} {
				conv := NewConv2D(rng, s.c, s.c, 3, 1, 1, true)
				rng.FillNormal(conv.Bias.W, 0, 1)
				x := randInput(int64(s.hw), 2, s.c, s.hw, s.hw)
				what := fmt.Sprintf("conv %dto%d @%dx%d", s.c, s.c, s.hw, s.hw)
				sameBits(t, what, inferOnce(conv, x), conv.forwardColumns(x, false), false)
			}
		})
	}
}

// evalReference is the eval pass from the layers' definitions, the reference
// of the inference tests: a Conv2D's per-sample column products
// (forwardColumns), a BatchNorm2D's affine map with its running statistics,
// a Residual's two branches summed, and every other layer's training
// Forward, whose values do not depend on the mode.
func evalReference(l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch v := l.(type) {
	case *Sequential:
		for _, sub := range v.Layers {
			x = evalReference(sub, x)
		}
		return x
	case *FusedBlock:
		return evalReference(NewSequential("leaves", v.leaves...), x)
	case *Residual:
		skip := x
		if v.Proj != nil {
			skip = evalReference(v.Proj, x)
		}
		body := evalReference(v.Body, x)
		y := tensor.New(body.Shape...)
		tensor.AddInto(y, body, skip)
		return y
	case *Conv2D:
		return v.forwardColumns(x, false)
	case *BatchNorm2D:
		y := tensor.New(x.Shape...)
		hw := x.Shape[2] * x.Shape[3]
		for p := 0; p < x.Shape[0]*v.C; p++ {
			ch := p % v.C
			mean := v.RunMean.Data[ch]
			invStd := 1 / float32(math.Sqrt(float64(v.RunVar.Data[ch]+v.Eps)))
			g, b := v.Gamma.W.Data[ch], v.Beta.W.Data[ch]
			for j := p * hw; j < (p+1)*hw; j++ {
				y.Data[j] = g*(x.Data[j]-mean)*invStd + b
			}
		}
		return y
	}
	return l.Forward(tensor.NewArena(), x)
}

// inferOnce runs l.ForwardInfer on an arena copy of x.
func inferOnce(l Layer, x *tensor.Tensor) *tensor.Tensor {
	ar := tensor.NewArena()
	in := ar.Alloc(x.Shape...)
	copy(in.Data, x.Data)
	return l.ForwardInfer(in, ar)
}

// TestForwardInferZeroAllocWhenFrozen: once an arena is frozen, ForwardInfer
// touches no heap, for every layer type of inferTestModel and for a Linear
// whose weights are over the 1 MiB where its product is split by columns on a
// prebound Call.
func TestForwardInferZeroAllocWhenFrozen(t *testing.T) {
	rng := tensor.NewRNG(7)
	model := inferTestModel(rng)
	randomizeEval(rng, model)
	for _, c := range []struct {
		l     Layer
		shape []int
	}{
		{model, []int{3, 3, 16, 16}},
		{streamedLinear(rng), []int{3, streamedIn}},
	} {
		x := tensor.New(c.shape...)
		rng.FillNormal(x, 0, 1)

		ar := tensor.NewArena()
		in := ar.Alloc(x.Shape...)
		copy(in.Data, x.Data)
		c.l.ForwardInfer(in, ar)
		ar.Freeze()

		allocs := testing.AllocsPerRun(10, func() {
			ar.Reset()
			in := ar.Alloc(c.shape...)
			copy(in.Data, x.Data)
			c.l.ForwardInfer(in, ar)
		})
		if allocs != 0 {
			t.Fatalf("%s: frozen ForwardInfer allocated %.1f times per run, want 0", c.l.Name(), allocs)
		}
	}
}

// streamedIn is the input width of streamedLinear: embedded_large's pooled
// features.
const streamedIn = 18432

// streamedLinear is embedded_large's manifold FC, 18432 → 100 with a random
// bias: 7.4 MB of weights, over the 1 MiB where ForwardInfer's product is
// split by columns.
func streamedLinear(rng *tensor.RNG) *Linear {
	l := NewLinear(rng, streamedIn, 100, true)
	rng.FillNormal(l.Bias.W, 0, 1)
	return l
}

// TestInferSplitsStreamedLinear runs nn.Infer over streamedLinear in more
// parts than workers, so each part's column split fans out from a part that
// holds a worker arena, from two goroutines at once under a watchdog (and
// -race in `make race`). Every output must be its dot chain plus the bias,
// bit for bit.
func TestInferSplitsStreamedLinear(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := streamedLinear(rng)
	n := 2*parallel.Workers() + 1
	x := tensor.New(n, streamedIn)
	rng.FillNormal(x, 0, 1)
	want := make([]float32, n*l.Out)
	for i := range n {
		for j := range l.Out {
			want[i*l.Out+j] = tensor.DotFast(x.Row(i), l.Weight.W.Row(j)) + l.Bias.W.Data[j]
		}
	}
	done := make(chan string, 2)
	for range 2 {
		go func() {
			for it := 0; it < 4; it++ {
				got := Infer(l, x, 1)
				for i, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						done <- fmt.Sprintf("output %d = %v, dot chain %v", i, v, want[i])
						return
					}
				}
			}
			done <- ""
		}()
	}
	for range 2 {
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("nn.Infer over a streamed Linear deadlocked")
		}
	}
}

func TestForwardInferDoesNotMutateState(t *testing.T) {
	rng := tensor.NewRNG(9)
	model := inferTestModel(rng)
	randomizeEval(rng, model)
	x := tensor.New(2, 3, 16, 16)
	rng.FillNormal(x, 0, 1)

	// Train-mode forward fills caches; an inference pass must not disturb
	// them (it may run concurrently with nothing, but must stay state-free).
	model.Forward(tensor.NewArena(), x)
	conv := model.Layers[0].(*Conv2D)
	if conv.cachedX == nil {
		t.Fatal("expected training cache to be set")
	}
	ar := tensor.NewArena()
	in := ar.Alloc(x.Shape...)
	copy(in.Data, x.Data)
	model.ForwardInfer(in, ar)
	if conv.cachedX == nil {
		t.Fatal("ForwardInfer cleared the training cache; it must be state-free")
	}
}

// TestDepthwiseInferMatchesForwardGeometries drives the padded-plane kernels
// (tensor.DepthwisePlane) through awkward geometries — strides, pads, kernels
// wider than the padded input, 1×1 kernels, non-square inputs — and requires
// ForwardInfer to equal both Forward and the definition (convChannel).
func TestDepthwiseInferMatchesForwardGeometries(t *testing.T) {
	cases := []struct {
		c, k, stride, pad, h, w int
	}{
		{4, 3, 1, 1, 8, 8},
		{3, 3, 2, 1, 9, 7},
		{2, 5, 1, 2, 6, 6},
		{2, 3, 1, 0, 5, 5},
		{3, 3, 2, 0, 7, 7},
		{2, 5, 2, 2, 3, 2}, // kernel wider than the row: fully guarded path
		{1, 1, 1, 0, 4, 4},
		// Rows of eight and more outputs: whole vectors, a ragged last one,
		// windows that reach one or two input rows, and rows whose window
		// misses the input entirely.
		{4, 3, 1, 1, 12, 19},
		{2, 3, 1, 1, 1, 33},
		{2, 3, 1, 1, 2, 10},
		{2, 3, 1, 3, 5, 12},
		{2, 3, 2, 1, 9, 40},
		{3, 5, 2, 2, 11, 25},
		// 3×3 maps at their narrowest: three, two and one column.
		{2, 3, 1, 1, 5, 3},
		{2, 3, 1, 1, 4, 2},
		{2, 3, 1, 1, 3, 1},
	}
	for _, tc := range cases {
		rng := tensor.NewRNG(int64(tc.c*100 + tc.k*10 + tc.stride))
		d := NewDepthwiseConv2D(rng, tc.c, tc.k, tc.stride, tc.pad)
		x := tensor.New(2, tc.c, tc.h, tc.w)
		rng.FillNormal(x, 0, 1)
		name := fmt.Sprintf("k=%d s=%d p=%d %dx%d", tc.k, tc.stride, tc.pad, tc.h, tc.w)
		got := d.ForwardInfer(x, tensor.NewArena())
		sameBits(t, name+" vs Forward", got, d.Forward(tensor.NewArena(), x), false)
		sameBits(t, name+" vs convChannel", got, d.forwardReference(x), false)
	}
}

// TestAvgPoolInferRejectsBadInput: the global average pool fails like
// MaxPool2D — a named panic on a non-[N C H W] input, not a bare index panic.
func TestAvgPoolInferRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		layer Layer
		shape []int
		want  string
	}{
		{"globalavgpool rank 2", NewGlobalAvgPool2D(), []int{3, 8}, "nn: GlobalAvgPool2D expects [N C H W], got [3 8]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, tc.want) {
					t.Fatalf("panic %q, want prefix %q", msg, tc.want)
				}
			}()
			tc.layer.ForwardInfer(tensor.New(tc.shape...), tensor.NewArena())
			t.Fatal("no panic")
		})
	}
}

// TestResidualInferSkip pins both identity-skip cases against evalReference: a body whose first layer allocates its output adds x itself — the
// arena peak is the body's own, no skip buffer — while a body that opens with
// an in-place layer still gets the defensive copy, one activation larger.
func TestResidualInferSkip(t *testing.T) {
	rng := tensor.NewRNG(23)
	convFirst := NewSequential("conv-first", NewConv2D(rng, 4, 4, 3, 1, 1, false), NewBatchNorm2D(4), NewReLU6())
	inPlaceFirst := NewSequential("bn-first", NewBatchNorm2D(4), NewReLU6(), NewConv2D(rng, 4, 4, 1, 1, 0, false))
	randomizeEval(rng, convFirst)
	randomizeEval(rng, inPlaceFirst)
	x := tensor.New(3, 4, 9, 9)
	rng.FillNormal(x, 0, 2)
	for _, tc := range []struct {
		body *Sequential
		copy bool
	}{{convFirst, false}, {inPlaceFirst, true}} {
		want := evalReference(NewResidual(tc.body, nil), x)
		peak := func(l Layer) (int, *tensor.Tensor) {
			ar := tensor.NewArena()
			in := ar.Alloc(x.Shape...)
			copy(in.Data, x.Data)
			y := l.ForwardInfer(in, ar)
			return ar.PeakFloats(), y
		}
		bodyPeak, _ := peak(tc.body)
		gotPeak, got := peak(NewResidual(tc.body, nil))
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: ForwardInfer[%d]=%v, evalReference %v", tc.body.Label, i, got.Data[i], want.Data[i])
			}
		}
		if extra := gotPeak - bodyPeak; (extra != 0) != tc.copy || (tc.copy && extra != x.Len()) {
			t.Fatalf("%s: residual arena peak %d floats vs body %d, skip copied = %v", tc.body.Label, gotPeak, bodyPeak, tc.copy)
		}
	}
}
