package hdlearn

import (
	"math"
	"testing"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// makeBatchFixture builds a K-class problem of separable clusters plus an
// InitBundle'd model, deterministically from seed.
func makeBatchFixture(seed int64, k, d, n int) (*Model, *tensor.Tensor, []int) {
	rng := tensor.NewRNG(seed)
	protos := tensor.New(k, d)
	rng.FillNormal(protos, 0, 1)
	hvs := tensor.New(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % k
		row := hvs.Row(i)
		copy(row, protos.Row(labels[i]))
		for j := range row {
			row[j] += float32(rng.NormFloat64()) * 0.8
		}
	}
	m := NewModel(k, d)
	m.InitBundle(hvs, labels)
	return m, hvs, labels
}

func requireBitEqualModels(t *testing.T, a, b *Model) {
	t.Helper()
	for i := range a.M.Data {
		if math.Float32bits(a.M.Data[i]) != math.Float32bits(b.M.Data[i]) {
			t.Fatalf("M[%d] diverges: %v (%08x) vs %v (%08x)", i,
				a.M.Data[i], math.Float32bits(a.M.Data[i]),
				b.M.Data[i], math.Float32bits(b.M.Data[i]))
		}
	}
}

func requireEqualHistory(t *testing.T, a, b []EpochStats) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("history length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d stats diverge: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}

// TestTrainMASSBatchB1BitExact is the proof-backed contract test: at
// Batch = 1, Retrain without a teacher must reproduce the per-sample MASS
// reference bit for bit — identical float32 model and float64-equal epoch
// stats, shuffling included.
func TestTrainMASSBatchB1BitExact(t *testing.T) {
	ref, hvs, labels := makeBatchFixture(3, 5, 256, 60)
	batched := ref.Clone()
	cfg := RetrainConfig{Epochs: 3, LR: 0.07, Batch: 1}
	refHist := ref.TrainMASS(hvs, labels, cfg, tensor.NewRNG(99))
	batHist, err := batched.Retrain(hvs, labels, nil, cfg, tensor.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualHistory(t, refHist, batHist)
	requireBitEqualModels(t, ref, batched)
}

// TestTrainDistillBatchB1BitExact: same contract for Algorithm 1, Retrain
// with a teacher against the per-sample TrainDistill reference.
func TestTrainDistillBatchB1BitExact(t *testing.T) {
	ref, hvs, labels := makeBatchFixture(5, 4, 192, 48)
	teacher := tensor.New(48, 4)
	tensor.NewRNG(7).FillNormal(teacher, 0, 2)
	batched := ref.Clone()
	cfg := RetrainConfig{Epochs: 3, LR: 0.05, Alpha: 0.4, Temp: 2, Batch: 1}
	refHist := ref.TrainDistill(hvs, labels, teacher, cfg, tensor.NewRNG(55))
	batHist, err := batched.Retrain(hvs, labels, teacher, cfg, tensor.NewRNG(55))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualHistory(t, refHist, batHist)
	requireBitEqualModels(t, ref, batched)
}

// TestTrainMASSBatchLearns checks Retrain at a realistic batch size actually
// trains: accuracy on the separable fixture should end high, and the update
// mass should shrink.
func TestTrainMASSBatchLearns(t *testing.T) {
	m, hvs, labels := makeBatchFixture(11, 6, 512, 240)
	cfg := RetrainConfig{Epochs: 12, LR: 0.05, Batch: 32}
	hist, err := m.Retrain(hvs, labels, nil, cfg, tensor.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Epochs {
		t.Fatalf("expected %d epochs, got %d", cfg.Epochs, len(hist))
	}
	if acc := m.Accuracy(hvs, labels); acc < 0.95 {
		t.Fatalf("batched MASS train accuracy %.3f < 0.95", acc)
	}
	if hist[len(hist)-1].MeanUpdateNorm >= hist[0].MeanUpdateNorm {
		t.Fatalf("update mass did not shrink: %v → %v",
			hist[0].MeanUpdateNorm, hist[len(hist)-1].MeanUpdateNorm)
	}
}

// TestTrainDistillBatchLearns: Retrain with a well-informed teacher should
// also converge on the fixture.
func TestTrainDistillBatchLearns(t *testing.T) {
	m, hvs, labels := makeBatchFixture(17, 4, 384, 160)
	// Teacher logits: confident, correct predictions.
	teacher := tensor.New(160, 4)
	for i, y := range labels {
		teacher.Row(i)[y] = 6
	}
	cfg := RetrainConfig{Epochs: 10, LR: 0.05, Alpha: 0.5, Temp: 4, Batch: 16}
	if _, err := m.Retrain(hvs, labels, teacher, cfg, tensor.NewRNG(19)); err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(hvs, labels); acc < 0.95 {
		t.Fatalf("batched distill train accuracy %.3f < 0.95", acc)
	}
}

// TestClassNormCacheInvalidation mutates M directly (with Invalidate, as the
// contract requires) and checks Similarity picks up the new norms instead of
// serving stale cached values.
func TestClassNormCacheInvalidation(t *testing.T) {
	m, hvs, _ := makeBatchFixture(23, 3, 64, 6)
	h := hdc.Hypervector(hvs.Row(0))
	before := m.Similarity(h) // primes the norm cache

	// Mutate class 1 drastically and invalidate.
	row := m.M.Row(1)
	for j := range row {
		row[j] *= 10
	}
	m.Invalidate()
	after := m.Similarity(h)

	// Cosine is scale-invariant, so a correctly refreshed cache reproduces
	// the same similarity for class 1; a stale cache (old, 10× smaller norm)
	// would report a wildly larger value.
	fresh := m.Clone().Similarity(h) // Clone has no cache at all
	for k := range after {
		if math.Abs(float64(after[k]-fresh[k])) > 1e-6 {
			t.Fatalf("class %d similarity %v differs from cache-free %v", k, after[k], fresh[k])
		}
	}
	_ = before

	// And the batch path must agree with the per-sample path post-mutation.
	sims := m.SimilarityBatch(hvs)
	single := m.Similarity(hdc.Hypervector(hvs.Row(2)))
	for k := range single {
		if math.Float32bits(sims.Row(2)[k]) != math.Float32bits(single[k]) {
			t.Fatalf("SimilarityBatch[2][%d]=%v, Similarity=%v", k, sims.Row(2)[k], single[k])
		}
	}
}

// TestTrainMASSBatchEmptySet: every retraining loop returns a nil history on
// an empty training set instead of dividing by zero — Retrain with and
// without a teacher, and TrainPerceptron.
func TestTrainMASSBatchEmptySet(t *testing.T) {
	cfg := RetrainConfig{Epochs: 2, LR: 0.1, Alpha: 0.5, Temp: 2}
	for _, c := range []struct {
		name string
		run  func(m *Model, hvs *tensor.Tensor) ([]EpochStats, error)
	}{
		{"Retrain", func(m *Model, hvs *tensor.Tensor) ([]EpochStats, error) {
			return m.Retrain(hvs, nil, nil, cfg, tensor.NewRNG(1))
		}},
		{"Retrain/teacher", func(m *Model, hvs *tensor.Tensor) ([]EpochStats, error) {
			return m.Retrain(hvs, nil, tensor.New(0, 3), cfg, tensor.NewRNG(1))
		}},
		{"TrainPerceptron", func(m *Model, hvs *tensor.Tensor) ([]EpochStats, error) {
			return m.TrainPerceptron(hvs, nil, cfg, tensor.NewRNG(1)), nil
		}},
	} {
		hist, err := c.run(NewModel(3, 32), tensor.New(0, 32))
		if err != nil || hist != nil {
			t.Errorf("%s: history %v, error %v; want nil, nil", c.name, hist, err)
		}
	}
}
