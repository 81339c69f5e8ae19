package core_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// The HD training bits of the amd64 vector kernels, recorded at 4cc5b4f, where
// MASS and Algorithm 1 each had a per-sample and a batched trainer: FNV-1a 64
// of the class matrix, the manifold FC and the report after hdTrainingBits'
// TrainOnFeatures with KD on and with KD off, and of the class matrix and the
// epoch history after its Batch = 1 MASS run. Both widths give the same bits.
const (
	wantKDBits     = 0x9e5f6f4cbe145967
	wantNoKDBits   = 0x3fe40714fedc9f51
	wantBatch1Bits = 0x741630e437b8515c
)

// hdTrainingBits trains the manifold pipeline of a one-unit zoo on 61 random
// 6×4×4 feature maps (5 classes, D = 600 off every GEMM block, F̂ = 12,
// batch 16, 4 joint epochs, so the refinement runs 3 epochs with a ragged
// last batch), once with KD and once without, and retrains a bundled model on
// 90 random bipolar hypervectors for 3 shuffled epochs one sample at a time,
// as VanillaHD does.
func hdTrainingBits(t *testing.T) (kd, noKD, batch1 uint64) {
	t.Helper()
	const classes, n = 5, 61
	feats := tensor.New(n, 6, 4, 4)
	tensor.NewRNG(31).FillNormal(feats, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i*3 + 1) % classes
	}
	logits := tensor.New(n, classes)
	tensor.NewRNG(32).FillNormal(logits, 0, 2)

	h := fnv.New64a()
	pipeline := func(useKD bool) uint64 {
		cfg := core.DefaultConfig(0, classes)
		cfg.D, cfg.FHat, cfg.Epochs, cfg.BatchSize, cfg.Seed = 600, 12, 4, 16, 33
		cfg.UseKD = useKD
		p, err := core.New(featZoo(4, classes), cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := p.TrainOnFeatures(feats, labels, logits, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Reset()
		hashFloats(h, p.HD.M.Data)
		for _, prm := range p.Manifold.Params() {
			hashFloats(h, prm.W.Data)
		}
		for _, st := range report.Epochs {
			hashFloat64s(h, st.TrainAccuracy, st.MeanUpdateNorm)
		}
		hashFloat64s(h, report.TeacherTrainAccuracy, report.FinalTrainAccuracy)
		return h.Sum64()
	}
	kd, noKD = pipeline(true), pipeline(false)

	const d, m = 600, 90
	rng := tensor.NewRNG(34)
	hvs := tensor.New(m, d)
	rng.FillBipolar(hvs)
	hvLabels := make([]int, m)
	for i := range hvLabels {
		hvLabels[i] = i % classes
	}
	model := hdlearn.NewModel(classes, d)
	model.InitBundle(hvs, hvLabels)
	hist, err := model.Retrain(hvs, hvLabels, nil, hdlearn.RetrainConfig{Epochs: 3, LR: 0.35, Batch: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	hashFloats(h, model.M.Data)
	for _, st := range hist {
		hashFloat64s(h, st.TrainAccuracy, st.MeanUpdateNorm)
	}
	return kd, noKD, h.Sum64()
}

func hashFloats(h hash.Hash64, x []float32) {
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

func hashFloat64s(h hash.Hash64, x ...float64) {
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestHDTrainingBitsPinned pins hdTrainingBits at the live kernel width and
// at forced 256 bits. The trainers' own tests compare one of them against
// another, and TestTrainOnFeaturesMatchesReference calls the same retraining
// loop as the pipeline; a change to the loop's rounding — λ applied after the
// rank-B GEMM instead of before it, a reordered update sum — fails here. The
// portable build rounds differently (no FMA) and is not pinned.
func TestHDTrainingBitsPinned(t *testing.T) {
	if tensor.KernelISA() == "portable" {
		t.Skip("the pinned bits are the vector kernels'; the portable twins round differently")
	}
	check := func(t *testing.T) {
		kd, noKD, batch1 := hdTrainingBits(t)
		if kd != wantKDBits || noKD != wantNoKDBits || batch1 != wantBatch1Bits {
			t.Errorf("KD bits %#016x (want %#016x), no-KD bits %#016x (want %#016x), Batch = 1 MASS bits %#016x (want %#016x)",
				kd, uint64(wantKDBits), noKD, uint64(wantNoKDBits), batch1, uint64(wantBatch1Bits))
		}
	}
	check(t)
	t.Run("at256", func(t *testing.T) {
		tensortest.At256(t)
		check(t)
	})
}

// The eval bits of the amd64 vector kernels, recorded at c934515, where every
// eval pass ran Forward(x, false) or the arena forwardIn: FNV-1a 64 of
// ExtractFeatures and of the full CNN's PredictLogits on evalBits' images, per
// zoo cut. Both widths give the same bits.
var wantEvalBits = map[string][2]uint64{
	"vgg16@8":        {0x9673003c8f54befb, 0x0d732710cc9ee19d},
	"vgg16@29":       {0x22642171a447dbb5, 0x0d732710cc9ee19d},
	"mobilenetv2@14": {0x1f4ef40079d9c471, 0xec333e947212cb74},
	"effnetb0@6":     {0x87964829527512f1, 0xb4a3b482a3f41c03},
}

// evalBits builds the zoo model name (seed 41, 10 classes), moves every bias,
// BatchNorm affine and running statistic off its initial value so the eval
// epilogues all do arithmetic, and hashes the cut's features and the full
// CNN's logits on 8 seeded 32×32 images.
func evalBits(t *testing.T, name string, cut int) (feats, logits uint64) {
	t.Helper()
	zoo, err := cnn.Build(name, tensor.NewRNG(41), 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(42)
	for _, p := range zoo.Full().Params() {
		if p.W.Rank() == 1 {
			for i := range p.W.Data {
				p.W.Data[i] += float32(0.1 * rng.NormFloat64())
			}
		}
	}
	var visit func(l nn.Layer)
	visit = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Sequential:
			for _, sub := range v.Layers {
				visit(sub)
			}
		case *nn.Residual:
			visit(v.Body)
			if v.Proj != nil {
				visit(v.Proj)
			}
		case *nn.BatchNorm2D:
			for i := range v.RunMean.Data {
				v.RunMean.Data[i] = float32(0.1 * rng.NormFloat64())
				v.RunVar.Data[i] = float32(0.5 + rng.Float64())
			}
		}
	}
	visit(zoo.Full())
	cfg := core.DefaultConfig(cut, 10)
	p, err := core.New(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := tensor.New(8, 3, 32, 32)
	tensor.NewRNG(43).FillNormal(images, 0, 1)
	h := fnv.New64a()
	hashFloats(h, p.ExtractFeatures(images).Data)
	feats = h.Sum64()
	h.Reset()
	hashFloats(h, nn.PredictLogits(zoo.Full(), images, 32).Data)
	return feats, h.Sum64()
}

// TestEvalBitsPinned pins evalBits at the live kernel width and at forced 256
// bits, for the cuts the paper and the benchmark serve: VGG16's conv stacks
// at 32, 16, 8, 4 and 2 px (a cut at 8 fuses, a cut at 29 crosses every map),
// MobileNetV2's depthwise, BatchNorm and ReLU6 blocks, and EfficientNet-B0's
// SiLU, Sigmoid and squeeze-excitation. An eval path that moves any bit — a
// reordered sum, a plan that rounds differently from the per-sample column
// product — fails here. The portable build rounds differently (no FMA), and
// math.Exp takes its FMA branch only on a CPU that has one; neither is pinned.
func TestEvalBitsPinned(t *testing.T) {
	if tensor.KernelISA() == "portable" {
		t.Skip("the pinned bits are the vector kernels'; the portable twins round differently")
	}
	check := func(t *testing.T) {
		for _, c := range []struct {
			name string
			cut  int
		}{{"vgg16", 8}, {"vgg16", 29}, {"mobilenetv2", 14}, {"effnetb0", 6}} {
			key := fmt.Sprintf("%s@%d", c.name, c.cut)
			feats, logits := evalBits(t, c.name, c.cut)
			if want := wantEvalBits[key]; feats != want[0] || logits != want[1] {
				t.Errorf("%s: feature bits %#016x (want %#016x), logit bits %#016x (want %#016x)", key, feats, want[0], logits, want[1])
			}
		}
	}
	check(t)
	t.Run("at256", func(t *testing.T) {
		tensortest.At256(t)
		check(t)
	})
}
