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
func buildDeepTrainTestModel(seed int64) *Sequential {
	rng := tensor.NewRNG(seed)
	return NewSequential("train-path-deep",
		NewConv2D(rng, 1, 4, 3, 1, 1, true),
		NewBatchNorm2D(4),
		NewReLU(),
		NewDepthwiseConv2D(rng, 4, 3, 1, 1),
		NewMaxPool2D(8),
		NewConv2D(rng, 4, 6, 3, 1, 1, false),
		NewReLU(),
		NewMaxPool2D(2),
		NewConv2D(rng, 6, 5, 3, 1, 1, true),
		NewFlatten(),
		NewLinear(rng, 5*2*2, 3, true),
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
		model.ZeroGrad()
		logits := model.Forward(x, true)
		_, grad := CrossEntropy(logits, labels)
		model.Backward(grad)
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
