package hdlearn

import (
	"math"
	"testing"
	"testing/quick"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

const (
	testD = 1024
	testK = 4
)

// makeDataset synthesizes an HD classification task: K random prototype
// hypervectors, each sample a prototype with a fraction of components
// flipped. flip controls difficulty.
func makeDataset(seed int64, n int, flip float64) (*tensor.Tensor, []int, []hdc.Hypervector) {
	rng := tensor.NewRNG(seed)
	protos := make([]hdc.Hypervector, testK)
	for k := range protos {
		protos[k] = hdc.RandomBipolar(rng, testD)
	}
	hvs := tensor.New(n, testD)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		y := i % testK
		labels[i] = y
		h := protos[y].Clone()
		for j := range h {
			if rng.Float64() < flip {
				h[j] = -h[j]
			}
		}
		copy(hvs.Row(i), h)
	}
	return hvs, labels, protos
}

func TestInitBundleRecoverPrototypes(t *testing.T) {
	hvs, labels, protos := makeDataset(1, 80, 0.2)
	m := NewModel(testK, testD)
	m.InitBundle(hvs, labels)
	// Each class hypervector must be far more similar to its own prototype
	// than to any other.
	for k := 0; k < testK; k++ {
		own := hdc.Cosine(m.M.Row(k), protos[k])
		for j := 0; j < testK; j++ {
			if j == k {
				continue
			}
			other := hdc.Cosine(m.M.Row(k), protos[j])
			if own < other+0.3 {
				t.Fatalf("class %d bundle not aligned with its prototype: own=%v other=%v", k, own, other)
			}
		}
	}
	if acc := m.Accuracy(hvs, labels); acc < 0.95 {
		t.Fatalf("bundled model accuracy %v on easy task", acc)
	}
}

func TestSimilarityBatchMatchesSingle(t *testing.T) {
	hvs, labels, _ := makeDataset(2, 20, 0.3)
	m := NewModel(testK, testD)
	m.InitBundle(hvs, labels)
	batch := m.SimilarityBatch(hvs)
	for i := 0; i < 20; i++ {
		single := m.Similarity(hdc.Hypervector(hvs.Row(i)))
		for k := 0; k < testK; k++ {
			if math.Abs(float64(batch.At(i, k)-single[k])) > 1e-5 {
				t.Fatalf("similarity batch mismatch at %d,%d", i, k)
			}
		}
	}
}

func TestSimilarityIsCosine(t *testing.T) {
	m := NewModel(2, 4)
	copy(m.M.Row(0), []float32{1, 1, 1, 1})
	copy(m.M.Row(1), []float32{-1, -1, -1, -1})
	sims := m.Similarity(hdc.Hypervector{1, 1, 1, 1})
	if math.Abs(float64(sims[0])-1) > 1e-6 || math.Abs(float64(sims[1])+1) > 1e-6 {
		t.Fatalf("cosine similarities = %v", sims)
	}
	// Zero query yields zero similarities, not NaN.
	zero := m.Similarity(hdc.Hypervector{0, 0, 0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero-query similarities = %v", zero)
	}
}

func TestMASSImprovesHardTask(t *testing.T) {
	hvs, labels, _ := makeDataset(3, 200, 0.42)
	m := NewModel(testK, testD)
	m.InitBundle(hvs, labels)
	before := m.Accuracy(hvs, labels)
	hist, err := m.Retrain(hvs, labels, nil, RetrainConfig{Epochs: 10, LR: 0.5, Batch: 1}, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	after := m.Accuracy(hvs, labels)
	if after < before {
		t.Fatalf("MASS retraining degraded accuracy: %v -> %v", before, after)
	}
	if after < 0.9 {
		t.Fatalf("MASS final accuracy too low: %v", after)
	}
	// Update mass should shrink as the model converges.
	if hist[len(hist)-1].MeanUpdateNorm > hist[0].MeanUpdateNorm {
		t.Fatalf("update norm did not shrink: %v -> %v",
			hist[0].MeanUpdateNorm, hist[len(hist)-1].MeanUpdateNorm)
	}
}

func TestPerceptronRetrainWorks(t *testing.T) {
	hvs, labels, _ := makeDataset(5, 200, 0.42)
	m := NewModel(testK, testD)
	m.InitBundle(hvs, labels)
	m.TrainPerceptron(hvs, labels, RetrainConfig{Epochs: 10, LR: 1}, tensor.NewRNG(6))
	if acc := m.Accuracy(hvs, labels); acc < 0.85 {
		t.Fatalf("perceptron retraining accuracy %v", acc)
	}
}

func TestDistillAlphaZeroEqualsMASS(t *testing.T) {
	hvs, labels, _ := makeDataset(7, 60, 0.35)
	teacher := tensor.New(60, testK) // irrelevant at alpha=0
	tensor.NewRNG(8).FillNormal(teacher, 0, 1)

	m1 := NewModel(testK, testD)
	m1.InitBundle(hvs, labels)
	m2 := m1.Clone()

	if _, err := m1.Retrain(hvs, labels, nil, RetrainConfig{Epochs: 3, LR: 0.4, Batch: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Retrain(hvs, labels, teacher, RetrainConfig{Epochs: 3, LR: 0.4, Alpha: 0, Temp: 15, Batch: 1}, nil); err != nil {
		t.Fatal(err)
	}
	for i := range m1.M.Data {
		if math.Abs(float64(m1.M.Data[i]-m2.M.Data[i])) > 1e-3 {
			t.Fatalf("alpha=0 distillation must equal MASS at index %d: %v vs %v", i, m1.M.Data[i], m2.M.Data[i])
		}
	}
}

func TestDistillValidation(t *testing.T) {
	hvs, labels, _ := makeDataset(9, 8, 0.3)
	teacher := tensor.New(8, testK)
	m := NewModel(testK, testD)
	cases := []RetrainConfig{
		{Epochs: 0, LR: 0.1, Alpha: 0.5, Temp: 10},
		{Epochs: 1, LR: 0.1, Alpha: 0.5, Temp: 0},
		{Epochs: 1, LR: 0.1, Alpha: -0.1, Temp: 10},
		{Epochs: 1, LR: 0.1, Alpha: 1.1, Temp: 10},
	}
	for i, cfg := range cases {
		if _, err := m.Retrain(hvs, labels, teacher, cfg, nil); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, cfg)
		}
	}
	// Wrong teacher shape.
	bad := tensor.New(8, testK+1)
	if _, err := m.Retrain(hvs, labels, bad, RetrainConfig{Epochs: 1, LR: 0.1, Alpha: 0.5, Temp: 10}, nil); err == nil {
		t.Fatal("expected teacher shape error")
	}
}

func TestDistillRecoversTeacherKnowledge(t *testing.T) {
	// Construct a task where one-hot labels are partially WRONG (label
	// noise) but the teacher's logits carry the true structure. KD should
	// then beat pure MASS — the mechanism behind Fig. 8.
	hvs, trueLabels, _ := makeDataset(10, 240, 0.38)
	n := hvs.Shape[0]
	noisy := append([]int(nil), trueLabels...)
	rng := tensor.NewRNG(11)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			noisy[i] = rng.Intn(testK)
		}
	}
	// Teacher: confident, correct logits.
	teacher := tensor.New(n, testK)
	for i := 0; i < n; i++ {
		for k := 0; k < testK; k++ {
			if k == trueLabels[i] {
				teacher.Set(6, i, k)
			}
		}
	}

	mMass := NewModel(testK, testD)
	mMass.InitBundle(hvs, noisy)
	mKD := mMass.Clone()

	if _, err := mMass.Retrain(hvs, noisy, nil, RetrainConfig{Epochs: 8, LR: 0.4, Batch: 1}, tensor.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	if _, err := mKD.Retrain(hvs, noisy, teacher, RetrainConfig{Epochs: 8, LR: 0.4, Alpha: 0.9, Temp: 1, Batch: 1}, tensor.NewRNG(12)); err != nil {
		t.Fatal(err)
	}
	accMass := mMass.Accuracy(hvs, trueLabels)
	accKD := mKD.Accuracy(hvs, trueLabels)
	if accKD < accMass {
		t.Fatalf("distillation should exploit teacher knowledge: KD=%v MASS=%v", accKD, accMass)
	}
}

func TestDistillUpdateBatchMatchesScalarPath(t *testing.T) {
	hvs, labels, _ := makeDataset(13, 10, 0.3)
	teacher := tensor.New(10, testK)
	tensor.NewRNG(14).FillNormal(teacher, 0, 2)
	m := NewModel(testK, testD)
	m.InitBundle(hvs, labels)

	alpha, temp := 0.6, 12.0
	u := m.DistillUpdateBatch(m.SimilarityBatch(hvs), labels, teacher, alpha, temp)
	// Recompute per-sample with the definition.
	soft := make([]float32, testK)
	for i := 0; i < 10; i++ {
		sims := m.Similarity(hdc.Hypervector(hvs.Row(i)))
		tensor.Softmax(soft, teacher.Row(i))
		for k := 0; k < testK; k++ {
			hard := -sims[k]
			if k == labels[i] {
				hard += 1
			}
			distilled := (soft[k] - sims[k]) / float32(temp)
			want := (1-float32(alpha))*hard + float32(alpha)*distilled
			if math.Abs(float64(u.At(i, k)-want)) > 1e-5 {
				t.Fatalf("U[%d,%d] = %v, want %v", i, k, u.At(i, k), want)
			}
		}
	}
}

func TestApplyUpdateOuterProduct(t *testing.T) {
	m := NewModel(2, 3)
	u := tensor.FromSlice([]float32{1, -1}, 1, 2)
	h := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	m.ApplyUpdate(u, h, 0.5)
	want0 := []float32{0.5, 1, 1.5}
	want1 := []float32{-0.5, -1, -1.5}
	for j := 0; j < 3; j++ {
		if m.M.At(0, j) != want0[j] || m.M.At(1, j) != want1[j] {
			t.Fatalf("ApplyUpdate result %v", m.M.Data)
		}
	}
}

func TestQueryGradIsUTimesM(t *testing.T) {
	m := NewModel(testK, 8)
	tensor.NewRNG(15).FillNormal(m.M, 0, 1)
	u := tensor.New(2, testK)
	tensor.NewRNG(16).FillNormal(u, 0, 1)
	g := m.QueryGrad(u)
	want := tensor.MatMul(u, m.M)
	for i := range g.Data {
		if g.Data[i] != want.Data[i] {
			t.Fatal("QueryGrad must equal U @ M")
		}
	}
}

func TestModelCosts(t *testing.T) {
	m := NewModel(10, 3000)
	if m.InferenceMACs() != 30000 {
		t.Fatalf("InferenceMACs = %d", m.InferenceMACs())
	}
	if m.MemoryBytes(false) != 10*3000*4 {
		t.Fatalf("dense bytes = %d", m.MemoryBytes(false))
	}
	if m.MemoryBytes(true) != 10*47*8 {
		t.Fatalf("packed bytes = %d", m.MemoryBytes(true))
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewModel(2, 4)
	m.M.Data[0] = 7
	c := m.Clone()
	c.M.Data[0] = 9
	if m.M.Data[0] != 7 {
		t.Fatal("Clone must deep-copy M")
	}
}

// Property: ApplyUpdate is linear — applying U then V equals applying U+V.
func TestApplyUpdateLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		const d = 64
		hvs := tensor.New(3, d)
		r.FillBipolar(hvs)
		u := tensor.New(3, testK)
		v := tensor.New(3, testK)
		r.FillNormal(u, 0, 1)
		r.FillNormal(v, 0, 1)

		m1 := NewModel(testK, d)
		m1.ApplyUpdate(u, hvs, 0.5)
		m1.ApplyUpdate(v, hvs, 0.5)

		m2 := NewModel(testK, d)
		sum := tensor.New(u.Shape...)
		tensor.AddInto(sum, u, v)
		m2.ApplyUpdate(sum, hvs, 0.5)

		for i := range m1.M.Data {
			if math.Abs(float64(m1.M.Data[i]-m2.M.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
