package nn

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"nshd/internal/tensor"
)

func TestCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over K classes must give loss = ln(K).
	logits := tensor.New(2, 4)
	loss, grad := CrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform CE loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("CE grad row %d sums to %v", i, s)
		}
	}
	// Correct-class gradient must be negative.
	if grad.At(0, 0) >= 0 || grad.At(1, 3) >= 0 {
		t.Fatal("CE gradient at true label must be negative")
	}
}

func TestCrossEntropyConfidentPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float32{10, -10, -10}, 1, 3)
	loss, _ := CrossEntropy(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should give ~0 loss, got %v", loss)
	}
	lossWrong, _ := CrossEntropy(logits, []int{1})
	if lossWrong < 10 {
		t.Fatalf("confident wrong prediction should give large loss, got %v", lossWrong)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 2, 0,
		5, 1, 0,
		0, 0, 9,
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 2}); got != 1 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy(logits, []int{0, 0, 2}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestDistillLossInterpolates(t *testing.T) {
	rng := tensor.NewRNG(1)
	student := tensor.New(4, 5)
	teacher := tensor.New(4, 5)
	rng.FillNormal(student, 0, 2)
	rng.FillNormal(teacher, 0, 2)
	labels := []int{0, 1, 2, 3}

	ceOnly, gradCE := DistillLoss(student, teacher, labels, 0, 4)
	wantCE, wantGradCE := CrossEntropy(student, labels)
	if math.Abs(ceOnly-wantCE) > 1e-6 {
		t.Fatalf("alpha=0 must reduce to CE: %v vs %v", ceOnly, wantCE)
	}
	for i := range gradCE.Data {
		if math.Abs(float64(gradCE.Data[i]-wantGradCE.Data[i])) > 1e-6 {
			t.Fatal("alpha=0 gradient must equal CE gradient")
		}
	}

	// alpha=1: gradient must vanish when student == teacher.
	_, g := DistillLoss(teacher.Clone(), teacher, labels, 1, 4)
	for _, v := range g.Data {
		if math.Abs(float64(v)) > 1e-5 {
			t.Fatalf("KL gradient must vanish at student==teacher, got %v", v)
		}
	}
}

func TestDistillGradientFiniteDiff(t *testing.T) {
	rng := tensor.NewRNG(2)
	student := tensor.New(2, 4)
	teacher := tensor.New(2, 4)
	rng.FillNormal(student, 0, 1)
	rng.FillNormal(teacher, 0, 1)
	labels := []int{1, 2}
	alpha, temp := 0.7, 3.0
	_, grad := DistillLoss(student, teacher, labels, alpha, temp)
	const eps = 1e-3
	for idx := 0; idx < student.Len(); idx++ {
		orig := student.Data[idx]
		student.Data[idx] = orig + eps
		lp, _ := DistillLoss(student, teacher, labels, alpha, temp)
		student.Data[idx] = orig - eps
		lm, _ := DistillLoss(student, teacher, labels, alpha, temp)
		student.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(grad.Data[idx])
		if !closeGrad(got, want, 5e-2) {
			t.Errorf("distill grad[%d] = %.5g, finite diff %.5g", idx, got, want)
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2}, 2)
	target := tensor.FromSlice([]float32{0, 0}, 2)
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-2.5) > 1e-6 {
		t.Fatalf("MSE = %v, want 2.5", loss)
	}
	if grad.Data[0] != 1 || grad.Data[1] != 2 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - c||² with SGD; w must approach c.
	p := newParam("w", 3)
	c := []float32{1, -2, 3}
	opt := NewSGD(0.1, 0.9, 0)
	for iter := 0; iter < 200; iter++ {
		p.ZeroGrad()
		for i := range p.W.Data {
			p.Grad.Data[i] = 2 * (p.W.Data[i] - c[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range c {
		if math.Abs(float64(p.W.Data[i]-c[i])) > 1e-3 {
			t.Fatalf("SGD failed to converge: w=%v", p.W.Data)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := newParam("w", 3)
	c := []float32{0.5, -1.5, 2.5}
	opt := NewAdam(0.05)
	for iter := 0; iter < 500; iter++ {
		p.ZeroGrad()
		for i := range p.W.Data {
			p.Grad.Data[i] = 2 * (p.W.Data[i] - c[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range c {
		if math.Abs(float64(p.W.Data[i]-c[i])) > 1e-2 {
			t.Fatalf("Adam failed to converge: w=%v", p.W.Data)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	var sq float64
	for _, g := range p.Grad.Data {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(sq))
	}
	// Below the threshold nothing changes.
	before := append([]float32(nil), p.Grad.Data...)
	ClipGradNorm([]*Param{p}, 10)
	for i := range before {
		if p.Grad.Data[i] != before[i] {
			t.Fatal("clip must not rescale below threshold")
		}
	}
}

func TestBatchNormTrainVsEvalStats(t *testing.T) {
	bn := NewBatchNorm2D(2)
	rng := tensor.NewRNG(3)
	x := tensor.New(8, 2, 3, 3)
	rng.FillNormal(x, 5, 2) // far from standard so normalization is visible
	y := bn.Forward(x, true)
	// Per-channel mean of the normalized output must be ~0, std ~1
	// (gamma=1, beta=0 initially).
	for ch := 0; ch < 2; ch++ {
		var s, sq float64
		cnt := 0
		for i := 0; i < 8; i++ {
			base := (i*2 + ch) * 9
			for j := 0; j < 9; j++ {
				v := float64(y.Data[base+j])
				s += v
				sq += v * v
				cnt++
			}
		}
		mean := s / float64(cnt)
		std := math.Sqrt(sq/float64(cnt) - mean*mean)
		if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("train-mode BN channel %d: mean=%v std=%v", ch, mean, std)
		}
	}
	// After many training passes the running stats approximate the data
	// distribution, so eval mode also roughly normalizes.
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	ye := bn.Forward(x, false)
	if m := ye.Mean(); math.Abs(m) > 0.2 {
		t.Fatalf("eval-mode BN mean = %v, want ~0", m)
	}
}

func TestSequentialSliceSharesParams(t *testing.T) {
	rng := tensor.NewRNG(4)
	model := NewSequential("m",
		NewConv2D(rng, 1, 2, 3, 1, 1, true),
		NewReLU(),
		NewFlatten(),
		NewLinear(rng, 2*4*4, 3, true),
	)
	cut := model.Slice(2)
	if len(cut.Layers) != 2 {
		t.Fatalf("Slice kept %d layers", len(cut.Layers))
	}
	conv := model.Layers[0].(*Conv2D)
	conv.Weight.W.Data[0] = 42
	cutConv := cut.Layers[0].(*Conv2D)
	if cutConv.Weight.W.Data[0] != 42 {
		t.Fatal("Slice must share parameters with the original")
	}
}

func TestStatsKnownCounts(t *testing.T) {
	rng := tensor.NewRNG(5)
	conv := NewConv2D(rng, 3, 16, 3, 1, 1, false)
	s := conv.Stats([]int{3, 32, 32})
	// 32*32 output positions × 16 out channels × 27 kernel elems.
	want := int64(32*32) * 16 * 27
	if s.MACs != want {
		t.Fatalf("conv MACs = %d, want %d", s.MACs, want)
	}
	if s.Params != 16*3*3*3 {
		t.Fatalf("conv params = %d", s.Params)
	}
	lin := NewLinear(rng, 100, 10, true)
	ls := lin.Stats([]int{100})
	if ls.MACs != 1000 || ls.Params != 1010 {
		t.Fatalf("linear stats = %+v", ls)
	}
}

func TestSequentialStatsAccumulate(t *testing.T) {
	rng := tensor.NewRNG(6)
	model := NewSequential("m",
		NewConv2D(rng, 1, 4, 3, 1, 1, false),
		NewMaxPool2D(2),
		NewFlatten(),
		NewLinear(rng, 4*2*2, 2, false),
	)
	total := model.Stats([]int{1, 4, 4})
	conv := int64(4*4) * 4 * 9
	lin := int64(16 * 2)
	if total.MACs != conv+lin {
		t.Fatalf("total MACs = %d, want %d", total.MACs, conv+lin)
	}
	if model.ParamCount() != 4*9+16*2 {
		t.Fatalf("ParamCount = %d", model.ParamCount())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	build := func() *Sequential {
		rng := tensor.NewRNG(7) // deterministic topology+init
		return NewSequential("snap",
			NewConv2D(rng, 1, 2, 3, 1, 1, true),
			NewBatchNorm2D(2),
			NewReLU(),
			NewFlatten(),
			NewLinear(rng, 2*4*4, 3, true),
		)
	}
	m1 := build()
	// Mutate m1's state away from init.
	rng := tensor.NewRNG(8)
	for _, p := range m1.Params() {
		rng.FillNormal(p.W, 0, 1)
	}
	bn := m1.Layers[1].(*BatchNorm2D)
	bn.RunMean.Data[0] = 1.5
	bn.RunVar.Data[1] = 2.5

	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(m1, path); err != nil {
		t.Fatal(err)
	}
	m2 := build()
	if err := LoadModel(m2, path); err != nil {
		t.Fatal(err)
	}
	x := randInput(9, 2, 1, 4, 4)
	y1 := m1.Forward(x, false)
	y2 := m2.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("restored model diverges at output %d: %v vs %v", i, y1.Data[i], y2.Data[i])
		}
	}
	bn2 := m2.Layers[1].(*BatchNorm2D)
	if bn2.RunMean.Data[0] != 1.5 || bn2.RunVar.Data[1] != 2.5 {
		t.Fatal("batch-norm running stats not restored")
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := NewSequential("x", NewLinear(rng, 2, 2, false))
	if err := LoadModel(m, filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadModelTopologyMismatch(t *testing.T) {
	rng := tensor.NewRNG(11)
	m1 := NewSequential("a", NewLinear(rng, 2, 2, false))
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := SaveModel(m1, path); err != nil {
		t.Fatal(err)
	}
	m2 := NewSequential("b", NewLinear(rng, 3, 3, false))
	if err := LoadModel(m2, path); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("snapshot file should still exist")
	}
}

func TestTrainerLearnsToyProblem(t *testing.T) {
	// Two linearly separable blobs rendered as 1x4x4 "images": class 0 bright
	// top-left, class 1 bright bottom-right. A tiny CNN must reach high
	// train accuracy in a few epochs.
	rng := tensor.NewRNG(12)
	n := 64
	images := tensor.New(n, 1, 4, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		for h := 0; h < 4; h++ {
			for w := 0; w < 4; w++ {
				v := float32(rng.NormFloat64()) * 0.1
				if cls == 0 && h < 2 && w < 2 {
					v += 1
				}
				if cls == 1 && h >= 2 && w >= 2 {
					v += 1
				}
				images.Set(v, i, 0, h, w)
			}
		}
	}
	model := NewSequential("toy",
		NewConv2D(rng, 1, 4, 3, 1, 1, true),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewLinear(rng, 4*2*2, 2, true),
	)
	tr := &Trainer{Epochs: 15, BatchSize: 16, Opt: NewSGD(0.1, 0.9, 0)}
	hist := tr.Fit(model, images, labels, rng)
	final := hist[len(hist)-1]
	if final.Accuracy < 0.95 {
		t.Fatalf("toy problem not learned: final acc %v", final.Accuracy)
	}
	if acc := Evaluate(model, images, labels, 16); acc < 0.95 {
		t.Fatalf("eval accuracy %v", acc)
	}
	// Loss must decrease substantially from epoch 1 to the end.
	if hist[0].Loss <= final.Loss {
		t.Fatalf("loss did not decrease: %v -> %v", hist[0].Loss, final.Loss)
	}
}

func TestPredictLogitsMatchesDirectForward(t *testing.T) {
	rng := tensor.NewRNG(13)
	model := NewSequential("p",
		NewFlatten(),
		NewLinear(rng, 8, 3, true),
	)
	x := randInput(14, 10, 2, 2, 2)
	got := PredictLogits(model, x, 3) // odd batch size exercises the tail
	want := model.Forward(x, false)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-6 {
			t.Fatalf("PredictLogits differs at %d", i)
		}
	}
}

func TestStepDecaySchedule(t *testing.T) {
	sched := StepDecay(0.1, 0.5, 3)
	wants := map[int]float64{1: 0.1, 3: 0.1, 4: 0.05, 6: 0.05, 7: 0.025}
	for e, want := range wants {
		if got := sched(e); math.Abs(got-want) > 1e-12 {
			t.Fatalf("StepDecay(%d) = %v, want %v", e, got, want)
		}
	}
}

func TestTrainerAppliesSchedule(t *testing.T) {
	rng := tensor.NewRNG(30)
	model := NewSequential("s", NewFlatten(), NewLinear(rng, 4, 2, true))
	images := tensor.New(8, 1, 2, 2)
	rng.FillNormal(images, 0, 1)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	sgd := NewSGD(99, 0, 0)
	var seen []float64
	tr := &Trainer{
		Epochs: 3, BatchSize: 4, Opt: sgd,
		LRSchedule: func(e int) float64 {
			lr := 0.1 / float64(e)
			seen = append(seen, lr)
			return lr
		},
	}
	tr.Fit(model, images, labels, rng)
	if len(seen) != 3 {
		t.Fatalf("schedule invoked %d times", len(seen))
	}
	if math.Abs(sgd.LR-0.1/3) > 1e-12 {
		t.Fatalf("final LR = %v", sgd.LR)
	}
}
