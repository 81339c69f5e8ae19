package core_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"nshd/internal/core"
	"nshd/internal/hdlearn"
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
