package nn

import (
	"strings"
	"testing"

	"nshd/internal/tensor"
)

// inferTestModel exercises every layer type that has an inference path:
// conv (bias), batchnorm, relu, maxpool, depthwise conv, relu6, residual
// with identity skip, SE block, residual with projection, avgpool, silu,
// global-avg-pool is covered via SE; the head covers flatten, dropout,
// linear and sigmoid.
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
		NewAvgPool2D(2),
		NewFlatten(),
		NewDropout(rng, 0.3),
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

func TestForwardInferMatchesEvalForward(t *testing.T) {
	rng := tensor.NewRNG(42)
	model := inferTestModel(rng)
	randomizeEval(rng, model)
	if err := InferSupported(model); err != nil {
		t.Fatalf("InferSupported: %v", err)
	}

	x := tensor.New(5, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	want := model.Forward(x, false)

	ar := tensor.NewArena()
	in := ar.Alloc(x.Shape...)
	copy(in.Data, x.Data)
	got := model.ForwardInfer(in, ar)

	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("ForwardInfer[%d]=%v, Forward(eval)=%v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardInferImplicitConvMatches forces the implicit-GEMM conv gate
// open on the small test model and pins the whole pass bit-identical to the
// eval Forward path (which stays on materialized im2col).
func TestForwardInferImplicitConvMatches(t *testing.T) {
	saved := convImplicitMinFloats
	convImplicitMinFloats = 0
	defer func() { convImplicitMinFloats = saved }()

	rng := tensor.NewRNG(17)
	model := inferTestModel(rng)
	randomizeEval(rng, model)

	x := tensor.New(4, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	want := model.Forward(x, false)

	ar := tensor.NewArena()
	in := ar.Alloc(x.Shape...)
	copy(in.Data, x.Data)
	got := model.ForwardInfer(in, ar)

	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("implicit ForwardInfer[%d]=%v, Forward(eval)=%v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestForwardInferZeroAllocWhenFrozen(t *testing.T) {
	rng := tensor.NewRNG(7)
	model := inferTestModel(rng)
	randomizeEval(rng, model)

	x := tensor.New(3, 3, 16, 16)
	rng.FillNormal(x, 0, 1)

	ar := tensor.NewArena()
	in := ar.Alloc(x.Shape...)
	copy(in.Data, x.Data)
	model.ForwardInfer(in, ar)
	ar.Freeze()

	allocs := testing.AllocsPerRun(10, func() {
		ar.Reset()
		in := ar.Alloc(3, 3, 16, 16)
		copy(in.Data, x.Data)
		model.ForwardInfer(in, ar)
	})
	if allocs != 0 {
		t.Fatalf("frozen ForwardInfer allocated %.1f times per run, want 0", allocs)
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
	model.Forward(x, true)
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

func TestInferSupportedRejectsUnknownLayer(t *testing.T) {
	model := NewSequential("bad", badLayer{})
	if err := InferSupported(model); err == nil {
		t.Fatal("expected error for a layer without an inference path")
	}
}

type badLayer struct{}

func (badLayer) Name() string                                        { return "bad" }
func (badLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (badLayer) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (badLayer) Params() []*Param                                    { return nil }
func (badLayer) OutShape(in []int) []int                             { return in }
func (badLayer) Stats(in []int) Stats                                { return Stats{} }

// TestDepthwiseInferMatchesForwardGeometries drives the boundary/interior
// split of convChannelInfer through awkward geometries: strides, pads,
// kernels wider than the padded input (no interior columns at all), and
// non-square inputs.
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
		// Interiors of eight and more columns: the vector row kernel, with
		// full blocks, a ragged last block, one- and two-row windows at the
		// vertical edges, and rows whose window misses the input entirely.
		{4, 3, 1, 1, 12, 19},
		{2, 3, 1, 1, 1, 33},
		{2, 3, 1, 1, 2, 10},
		{2, 3, 1, 3, 5, 12},
		{2, 3, 2, 1, 9, 40},
		{3, 5, 2, 2, 11, 25},
		// The straight-line 3×3 edge columns at their narrowest: three
		// columns (one interior), two (none, the edges share both pixels),
		// and one, which has a single in-bounds tap and stays guarded.
		{2, 3, 1, 1, 5, 3},
		{2, 3, 1, 1, 4, 2},
		{2, 3, 1, 1, 3, 1},
	}
	for _, tc := range cases {
		rng := tensor.NewRNG(int64(tc.c*100 + tc.k*10 + tc.stride))
		d := NewDepthwiseConv2D(rng, tc.c, tc.k, tc.stride, tc.pad)
		x := tensor.New(2, tc.c, tc.h, tc.w)
		rng.FillNormal(x, 0, 1)
		want := d.Forward(x, false)
		ar := tensor.NewArena()
		got := d.ForwardInfer(x, ar)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("k=%d s=%d p=%d: shape %v want %v", tc.k, tc.stride, tc.pad, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("k=%d s=%d p=%d %dx%d: element %d differs: %v vs %v",
					tc.k, tc.stride, tc.pad, tc.h, tc.w, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestAvgPoolInferRejectsBadInput: the average pools fail like MaxPool2D — a
// named panic on a non-[N C H W] input or a window larger than the map, not a
// bare index panic or a silently empty tensor.
func TestAvgPoolInferRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		layer InferenceLayer
		shape []int
		want  string
	}{
		{"avgpool rank 2", NewAvgPool2D(2), []int{3, 8}, "nn: AvgPool2D expects [N C H W], got [3 8]"},
		{"avgpool window", NewAvgPool2D(4), []int{1, 2, 3, 8}, "nn: AvgPool2D window 4 larger than input 3x8"},
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

// TestResidualInferSkip pins both identity-skip cases against the eval
// Forward: a body whose first layer allocates its output adds x itself — the
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
		want := NewResidual(tc.body, nil).Forward(x, false)
		peak := func(l InferenceLayer) (int, *tensor.Tensor) {
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
				t.Fatalf("%s: ForwardInfer[%d]=%v, Forward(eval)=%v", tc.body.Label, i, got.Data[i], want.Data[i])
			}
		}
		if extra := gotPeak - bodyPeak; (extra != 0) != tc.copy || (tc.copy && extra != x.Len()) {
			t.Fatalf("%s: residual arena peak %d floats vs body %d, skip copied = %v", tc.body.Label, gotPeak, bodyPeak, tc.copy)
		}
	}
}
