package nn

import (
	"math"
	"testing"

	"nshd/internal/tensor"
)

// buildTrainTestModel stamps out a small CNN covering every GEMM-ified
// backward path (conv, depthwise, batchnorm, linear). Constructing it twice
// with the same seed yields bit-identical parameters.
func buildTrainTestModel(seed int64) *Sequential {
	rng := tensor.NewRNG(seed)
	return NewSequential("train-path",
		NewConv2D(rng, 1, 4, 3, 1, 1, true),
		NewBatchNorm2D(4),
		NewReLU(),
		NewDepthwiseConv2D(rng, 4, 3, 1, 1),
		NewMaxPool2D(2),
		NewFlatten(),
		NewLinear(rng, 4*4*4, 3, true),
	)
}

// buildDeepTrainTestModel is buildTrainTestModel on 32×32 inputs with two more
// convs, so its Conv2D layers sit at both ends of the backward chunk-size
// rule: HW = 1024 (4-sample chunks), HW = 16 and HW = 4 (16-sample chunks).
// The last is wide enough (kdim 288 × 64 channels × 2 chunks) for
// mergeWeightGrad to split its tiles over the pool.
func buildDeepTrainTestModel(seed int64) *Sequential {
	rng := tensor.NewRNG(seed)
	return NewSequential("train-path-deep",
		NewConv2D(rng, 1, 4, 3, 1, 1, true),
		NewBatchNorm2D(4),
		NewReLU(),
		NewDepthwiseConv2D(rng, 4, 3, 1, 1),
		NewMaxPool2D(8),
		NewConv2D(rng, 4, 32, 3, 1, 1, false),
		NewReLU(),
		NewMaxPool2D(2),
		NewConv2D(rng, 32, 64, 3, 1, 1, true),
		NewFlatten(),
		NewLinear(rng, 64*2*2, 3, true),
	)
}

// runTrainingSteps performs a fixed two-step SGD run and returns the model.
// The batch of 18 leaves a ragged last chunk at either chunk size.
func runTrainingSteps(seed int64) *Sequential {
	model := buildDeepTrainTestModel(seed)
	x := randInput(7, 18, 1, 32, 32)
	labels := make([]int, 18)
	for i := range labels {
		labels[i] = i % 3
	}
	opt := NewSGD(0.05, 0.9, 0)
	for step := 0; step < 2; step++ {
		zeroGrads(model.Params())
		logits := model.Forward(tensor.NewArena(), x)
		_, grad := CrossEntropy(tensor.NewArena(), logits, labels)
		model.Backward(tensor.NewArena(), grad)
		opt.Step(model.Params())
	}
	return model
}

// TestTrainingStepSerialParallelBitIdentical proves the determinism contract
// of the chunked-accumulator backward passes: swapping the worker-pool
// dispatch for a strictly serial runner with the identical chunk schedule
// leaves every trained parameter bit-for-bit unchanged. Run under -race this
// also exercises the disjoint-write claims of the parallel kernels.
func TestTrainingStepSerialParallelBitIdentical(t *testing.T) {
	parallelModel := runTrainingSteps(11)

	orig := parallelFor
	parallelFor = func(n int, kernel func(lo, hi int)) { kernel(0, n) }
	defer func() { parallelFor = orig }()
	serialModel := runTrainingSteps(11)

	pp, sp := parallelModel.Params(), serialModel.Params()
	if len(pp) != len(sp) {
		t.Fatalf("param count mismatch: %d vs %d", len(pp), len(sp))
	}
	for pi, p := range pp {
		s := sp[pi]
		for i := range p.W.Data {
			if math.Float32bits(p.W.Data[i]) != math.Float32bits(s.W.Data[i]) {
				t.Fatalf("param %s[%d] diverges: parallel %v serial %v",
					p.Name, i, p.W.Data[i], s.W.Data[i])
			}
		}
	}
}

// TestTrainingPassesClearPoisonedArena is the training counterpart of
// inferPoisoned: one Forward and one Backward of a model with every layer
// type — a Residual with an identity skip and one with a projection, an
// SEBlock, a GlobalAvgPool2D outside it — on an arena whose float and int32
// slabs hold NaN from a previous step must give the bits of a fresh arena's
// zeroed memory: the output, every parameter gradient and the input
// gradient. A buffer accumulated into without its clear shows as NaN. The
// batch of 18 leaves ragged chunks in both convolutions' backward passes.
func TestTrainingPassesClearPoisonedArena(t *testing.T) {
	rng := tensor.NewRNG(61)
	model := NewSequential("poison",
		NewConv2D(rng, 3, 8, 3, 1, 1, true),
		NewBatchNorm2D(8),
		NewReLU(),
		NewMaxPool2D(2),
		NewResidual(NewSequential("identity", NewDepthwiseConv2D(rng, 8, 3, 1, 1), NewBatchNorm2D(8), NewReLU6()), nil),
		NewSEBlock(rng, 8, 4),
		NewResidual(NewSequential("projected", NewConv2D(rng, 8, 8, 3, 2, 1, false), NewSiLU()), NewConv2D(rng, 8, 8, 1, 2, 0, false)),
		NewGlobalAvgPool2D(),
		NewFlatten(),
		NewLinear(rng, 8, 10, true),
		NewSigmoid(),
	)
	x, grad := randInput(62, 18, 3, 16, 16), randInput(63, 18, 10)
	step := func(a *tensor.Arena) (y, dx *tensor.Tensor, grads []*tensor.Tensor) {
		zeroGrads(model.Params())
		in := a.Alloc(x.Shape...)
		copy(in.Data, x.Data)
		y = model.Forward(a, in)
		dx = model.Backward(a, grad)
		for _, p := range model.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return y.Clone(), dx.Clone(), grads
	}
	wantY, wantDx, wantGrads := step(tensor.NewArena())

	ar := tensor.NewArena()
	step(ar)
	ar.Grow()
	for i, junk := 0, ar.Floats(ar.PeakFloats()); i < len(junk); i++ {
		junk[i] = float32(math.NaN())
	}
	for i, junk := 0, ar.Int32s(ar.PeakInt32s()); i < len(junk); i++ {
		junk[i] = int32(math.Float32bits(float32(math.NaN())))
	}
	ar.Reset()
	y, dx, grads := step(ar)
	sameBits(t, "output", y, wantY, false)
	sameBits(t, "input gradient", dx, wantDx, false)
	for i, p := range model.Params() {
		sameBits(t, p.Name+" gradient", grads[i], wantGrads[i], false)
	}
}

// TestZeroGradClearsEveryParam fills every gradient of a model whose
// parameters add up to more than one pool task, ragged sizes among them,
// with −1 and requires ZeroGrad to leave +0 everywhere.
func TestZeroGradClearsEveryParam(t *testing.T) {
	model := buildDeepTrainTestModel(5)
	total := 0
	for _, p := range model.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = -1
		}
		total += p.Grad.Len()
	}
	if total <= elemGrain {
		t.Fatalf("%d gradient floats: too few to split", total)
	}
	zeroGrads(model.Params())
	for _, p := range model.Params() {
		for i, v := range p.Grad.Data {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s[%d] = %v after ZeroGrad", p.Name, i, v)
			}
		}
	}
}

// TestFitDoesNotMutateBatchSize guards the satellite fix: resolving the
// default batch size must not write through the receiver.
func TestFitDoesNotMutateBatchSize(t *testing.T) {
	model := buildTrainTestModel(13)
	x := randInput(17, 5, 1, 8, 8)
	labels := []int{0, 1, 2, 0, 1}
	tr := &Trainer{Epochs: 1, Opt: NewSGD(0.01, 0, 0)} // BatchSize deliberately 0
	hist := tr.Fit(model, x, labels, tensor.NewRNG(19))
	if tr.BatchSize != 0 {
		t.Fatalf("Fit mutated BatchSize to %d", tr.BatchSize)
	}
	if len(hist) != 1 {
		t.Fatalf("expected 1 epoch of history, got %d", len(hist))
	}
}

// TestEmptyInputGuards covers the N==0 satellite: Fit returns nil history,
// PredictLogits returns an empty [0, K] tensor, Evaluate returns 0 — none
// panic or divide by zero.
func TestEmptyInputGuards(t *testing.T) {
	model := buildTrainTestModel(23)
	empty := tensor.New(0, 1, 8, 8)

	tr := &Trainer{Epochs: 3, BatchSize: 4, Opt: NewSGD(0.01, 0, 0)}
	if hist := tr.Fit(model, empty, nil, tensor.NewRNG(29)); hist != nil {
		t.Fatalf("Fit on empty set returned %v, want nil", hist)
	}

	logits := PredictLogits(model, empty, 8)
	if logits.Shape[0] != 0 || logits.Shape[1] != 3 {
		t.Fatalf("PredictLogits empty shape %v, want [0 3]", logits.Shape)
	}

	if acc := Evaluate(model, empty, nil, 8); acc != 0 {
		t.Fatalf("Evaluate on empty set = %v, want 0", acc)
	}
}

// TestFitArenaReuseStable trains for several epochs with uneven batches (so
// the tail batch exercises the smaller-than-peak arena path) and checks the
// run completes with finite losses.
func TestFitArenaReuseStable(t *testing.T) {
	model := buildTrainTestModel(31)
	x := randInput(37, 10, 1, 8, 8)
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = i % 3
	}
	tr := &Trainer{Epochs: 3, BatchSize: 4, Opt: NewSGD(0.05, 0.9, 0)}
	hist := tr.Fit(model, x, labels, tensor.NewRNG(39))
	if len(hist) != 3 {
		t.Fatalf("expected 3 epochs, got %d", len(hist))
	}
	for _, st := range hist {
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			t.Fatalf("epoch %d loss %v", st.Epoch, st.Loss)
		}
	}
}
