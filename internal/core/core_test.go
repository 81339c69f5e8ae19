package core

import (
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/dataset"
	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// tinyZoo builds a fast 2-unit CNN in zoo form over 16×16 inputs so core
// tests don't pay for the real zoo models.
func tinyZoo(seed int64, classes int) *cnn.Model {
	rng := tensor.NewRNG(seed)
	m := &cnn.Model{Name: "tinycnn", InShape: []int{3, 16, 16}, Classes: classes}
	m.Units = append(m.Units,
		cnn.Unit{Index: 0, Label: "conv0", Layers: []nn.Layer{
			nn.NewConv2D(rng, 3, 8, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
		cnn.Unit{Index: 1, Label: "conv1", Layers: []nn.Layer{
			nn.NewConv2D(rng, 8, 16, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
	)
	m.Head = []nn.Layer{nn.NewFlatten(), nn.NewLinear(rng, 16*4*4, classes, true)}
	return m.Finish()
}

// trainedSetup pretrains the tiny zoo on a synthetic task and returns it
// with the data splits.
func trainedSetup(t *testing.T, classes, trainN, testN int) (*cnn.Model, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.SynthConfig{Classes: classes, Train: trainN, Test: testN, Size: 16, Noise: 0.2, Seed: 31}
	train, test := dataset.SynthCIFAR(cfg)
	means, stds := train.Normalize()
	test.ApplyNormalization(means, stds)
	zoo := tinyZoo(32, classes)
	tr := &nn.Trainer{Epochs: 8, BatchSize: 16, Opt: nn.NewSGD(0.02, 0.9, 1e-4), ClipNorm: 5}
	tr.Fit(zoo.Full(), train.Images, train.Labels, tensor.NewRNG(33))
	return zoo, train, test
}

func testConfig(classes int) Config {
	cfg := DefaultConfig(1, classes)
	cfg.D = 512
	cfg.FHat = 16
	cfg.Epochs = 6
	cfg.Seed = 7
	return cfg
}

func TestNewValidation(t *testing.T) {
	zoo := tinyZoo(1, 4)
	// F̂ below class count.
	bad := testConfig(4)
	bad.FHat = 2
	if _, err := New(zoo, bad); err == nil {
		t.Fatal("expected F̂ < classes error")
	}
	// Invalid cut layer.
	bad2 := testConfig(4)
	bad2.CutLayer = 9
	if _, err := New(zoo, bad2); err == nil {
		t.Fatal("expected invalid cut layer error")
	}
	// Class mismatch.
	bad3 := testConfig(6)
	if _, err := New(zoo, bad3); err == nil {
		t.Fatal("expected class mismatch error")
	}
	// Valid.
	if _, err := New(zoo, testConfig(4)); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineHDDisablesManifoldAndKD(t *testing.T) {
	zoo := tinyZoo(2, 4)
	cfg := testConfig(4)
	p, err := NewBaselineHD(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Manifold != nil || p.Cfg.UseKD || p.Cfg.UseManifold {
		t.Fatal("BaselineHD must disable manifold and KD")
	}
	// Projection maps the raw flattened features.
	wantF := 16 * 4 * 4
	if p.Proj.F != wantF {
		t.Fatalf("baseline projection F = %d, want %d", p.Proj.F, wantF)
	}
}

func TestExtractFeaturesMatchesDirect(t *testing.T) {
	zoo := tinyZoo(3, 4)
	p, err := New(zoo, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	images := tensor.New(5, 3, 16, 16)
	tensor.NewRNG(4).FillNormal(images, 0, 1)
	got := p.ExtractFeatures(images)
	// The whole batch through the unfused layers on one arena (ForwardInfer
	// works in place, so on a copy).
	want := p.Extractor.ForwardInfer(images.Clone(), tensor.NewArena())
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("batched extraction must equal direct forward")
		}
	}
	if got.Shape[1] != 16 || got.Shape[2] != 4 || got.Shape[3] != 4 {
		t.Fatalf("feature shape %v", got.Shape)
	}
}

// TestPipelineEvalConcurrent runs ExtractFeatures and PredictDirect on one
// pipeline from two goroutines at once and checks every result against the
// serial one. Under make race it pins that no eval pass writes layer state,
// which two callers would race on.
func TestPipelineEvalConcurrent(t *testing.T) {
	p, err := New(tinyZoo(9, 4), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	images := tensor.New(12, 3, 16, 16)
	tensor.NewRNG(10).FillNormal(images, 0, 1)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 4
	}
	_, _, signed := p.Symbolize(p.ExtractFeatures(images), false)
	p.HD.InitBundle(signed, labels)
	wantFeats, wantPreds := p.ExtractFeatures(images), p.PredictDirect(images)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for _, pass := range []func() bool{
		func() bool { return slices.Equal(p.ExtractFeatures(images).Data, wantFeats.Data) },
		func() bool { return slices.Equal(p.PredictDirect(images), wantPreds) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				if !pass() {
					errs <- "a concurrent eval pass differs from the serial one"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSymbolizeShapesAndBipolarity(t *testing.T) {
	zoo := tinyZoo(5, 4)
	p, _ := New(zoo, testConfig(4))
	images := tensor.New(3, 3, 16, 16)
	tensor.NewRNG(6).FillNormal(images, 0, 1)
	feats := p.ExtractFeatures(images)
	v, raw, signed := p.Symbolize(feats, false)
	if v.Shape[1] != 16 {
		t.Fatalf("manifold output %v, want F̂=16", v.Shape)
	}
	if raw.Shape[1] != 512 || signed.Shape[1] != 512 {
		t.Fatalf("hypervector shapes raw=%v signed=%v", raw.Shape, signed.Shape)
	}
	for _, x := range signed.Data {
		if x != 1 && x != -1 {
			t.Fatal("signed hypervectors must be bipolar")
		}
	}
}

func TestTrainEndToEnd(t *testing.T) {
	zoo, train, test := trainedSetup(t, 4, 160, 80)
	cnnAcc := nn.Evaluate(zoo.Full(), test.Images, test.Labels, 32)

	p, err := New(zoo, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	report, err := p.Train(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.TeacherTrainAccuracy < 0.5 {
		t.Fatalf("teacher accuracy %v too weak for the test to be meaningful", report.TeacherTrainAccuracy)
	}
	acc := p.Accuracy(test)
	if acc < 0.5 {
		t.Fatalf("NSHD test accuracy %v (CNN %v)", acc, cnnAcc)
	}
	// NSHD should be within striking distance of the CNN on this easy task.
	if acc < cnnAcc-0.25 {
		t.Fatalf("NSHD %v far below CNN %v", acc, cnnAcc)
	}
	if len(report.Epochs) != 6 {
		t.Fatalf("expected 6 epoch stats, got %d", len(report.Epochs))
	}
	// Joint retraining may dip while the manifold and class hypervectors
	// co-adapt, but must not collapse relative to the initial bundle.
	if report.FinalTrainAccuracy < 0.9*report.Epochs[0].TrainAccuracy {
		t.Fatalf("retraining regressed: %v -> %v", report.Epochs[0].TrainAccuracy, report.FinalTrainAccuracy)
	}
}

func TestTrainValidatesDataset(t *testing.T) {
	zoo := tinyZoo(7, 4)
	p, _ := New(zoo, testConfig(4))
	cfg := dataset.SynthConfig{Classes: 6, Train: 12, Test: 6, Size: 16, Noise: 0.2, Seed: 8}
	wrong, _ := dataset.SynthCIFAR(cfg)
	if _, err := p.Train(wrong, nil); err == nil {
		t.Fatal("expected class-count mismatch error")
	}
}

func TestManifoldReducesHDCost(t *testing.T) {
	zoo := tinyZoo(9, 4)
	nshd, _ := New(zoo, testConfig(4))
	base, _ := NewBaselineHD(zoo, testConfig(4))
	cN, cB := nshd.Costs(), base.Costs()
	// The symbolic side is everything but the CNN prefix.
	hdN, hdB := cN.TotalMACs()-cN.ExtractorMACs, cB.TotalMACs()-cB.ExtractorMACs
	if hdN >= hdB {
		t.Fatalf("manifold must reduce HD-side MACs: %d vs %d", hdN, hdB)
	}
	if cN.TotalBytes() >= cB.TotalBytes() {
		t.Fatalf("NSHD must be smaller than BaselineHD: %d vs %d", cN.TotalBytes(), cB.TotalBytes())
	}
	// Both share the same extractor cost.
	if cN.ExtractorMACs != cB.ExtractorMACs {
		t.Fatal("extractor costs must match")
	}
	// CNN baseline MACs exceed the extractor's.
	full, _ := nshd.CNNCosts()
	if full <= cN.ExtractorMACs {
		t.Fatal("full CNN must cost more than its prefix")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	classes := 4
	cfgD := dataset.SynthConfig{Classes: classes, Train: 64, Test: 32, Size: 32, Noise: 0.2, Seed: 41}
	train, test := dataset.SynthCIFAR(cfgD)
	means, stds := train.Normalize()
	test.ApplyNormalization(means, stds)

	// Save/Load requires a registered zoo model; mobilenetv2 is the
	// cheapest.
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(42), classes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(classes)
	cfg.CutLayer = 5
	cfg.Epochs = 2
	p, err := New(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(train, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nshd.gob")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wantPreds := p.PredictDirect(test.Images)
	gotPreds := q.PredictDirect(test.Images)
	for i := range wantPreds {
		if wantPreds[i] != gotPreds[i] {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "none.gob")); err == nil {
		t.Fatal("expected error")
	}
}

// TestPackedInferenceMatchesQuantizedFloat: with PackedInference on, the
// pipeline must predict exactly what the float path predicts for the
// sign-quantized model — packing is a representation change, not an
// approximation, once the model is bipolar.
func TestPackedInferenceMatchesQuantizedFloat(t *testing.T) {
	cfg := dataset.SynthConfig{Classes: 4, Train: 48, Test: 24, Size: 16, Noise: 0.2, Seed: 51}
	train, test := dataset.SynthCIFAR(cfg)
	zoo := tinyZoo(52, 4)
	p, err := New(zoo, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)

	// The float model with every class hypervector sign-quantized.
	quantized := &hdlearn.Model{K: p.HD.K, D: p.HD.D, M: tensor.Sign(p.HD.M)}
	want := quantized.PredictBatch(p.QueryHVs(test.Images))
	p.Cfg.PackedInference = true
	got := p.PredictDirect(test.Images)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: packed=%d, quantized float=%d", i, got[i], want[i])
		}
	}
	correct := 0
	for i, pr := range got {
		if pr == test.Labels[i] {
			correct++
		}
	}
	if acc := p.Accuracy(test); math.Abs(acc-float64(correct)/float64(len(got))) > 1e-9 {
		t.Fatalf("packed Accuracy %v inconsistent with packed PredictDirect", acc)
	}
}
