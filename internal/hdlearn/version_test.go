package hdlearn

import (
	"testing"

	"nshd/internal/tensor"
)

// randModel builds a K-class model with random class hypervectors. D=70 in
// most tests below deliberately avoids divisibility by 64 to exercise the
// packed tail-word path.
func randModel(t *testing.T, seed int64, k, d int) (*Model, *tensor.RNG) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	m := NewModel(k, d)
	rng.FillNormal(m.M, 0, 1)
	m.Invalidate()
	return m, rng
}

func randHVs(rng *tensor.RNG, n, d int) *tensor.Tensor {
	hvs := tensor.New(n, d)
	rng.FillBipolar(hvs)
	return hvs
}

func TestVersionBumpsOnEveryMutator(t *testing.T) {
	m, rng := randModel(t, 1, 4, 70)
	hvs := randHVs(rng, 12, 70)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 4
	}
	logits := tensor.New(12, 4)
	rng.FillNormal(logits, 0, 1)
	u := tensor.New(12, 4)
	rng.FillNormal(u, 0, 1)

	steps := []struct {
		name string
		run  func()
	}{
		{"InitBundle", func() { m.InitBundle(hvs, labels) }},
		{"Retrain", func() {
			if _, err := m.Retrain(hvs, labels, nil, RetrainConfig{Epochs: 1, LR: 0.1}, rng); err != nil {
				t.Fatal(err)
			}
		}},
		{"Retrain/teacher", func() {
			if _, err := m.Retrain(hvs, labels, logits, RetrainConfig{Epochs: 1, LR: 0.1, Alpha: 0.5, Temp: 2}, rng); err != nil {
				t.Fatal(err)
			}
		}},
		{"TrainPerceptron", func() { m.TrainPerceptron(hvs, labels, RetrainConfig{Epochs: 1, LR: 0.1}, rng) }},
		{"ApplyUpdate", func() { m.ApplyUpdate(u, hvs, 0.05) }},
	}
	for _, s := range steps {
		before := m.version
		s.run()
		if m.version == before {
			t.Errorf("%s did not bump the model version", s.name)
		}
	}
}

func TestPackedCacheInvalidation(t *testing.T) {
	m, rng := randModel(t, 2, 5, 70)
	hvs := randHVs(rng, 30, 70)

	p1 := m.Packed()
	if m.Packed() != p1 {
		t.Fatal("Packed() must return the cached object while the model is unchanged")
	}
	wantBefore := p1.PredictBatch(hvs)

	// Mutate: the cache must refresh and predictions must match a fresh pack.
	u := tensor.New(30, 5)
	rng.FillNormal(u, 0, 1)
	m.ApplyUpdate(u, hvs, 0.5)
	p2 := m.Packed()
	if p2 == p1 {
		t.Fatal("Packed() returned a stale cache after ApplyUpdate")
	}
	fresh := PackModel(m)
	gotAfter := p2.PredictBatch(hvs)
	wantAfter := fresh.PredictBatch(hvs)
	same := true
	for i := range gotAfter {
		if gotAfter[i] != wantAfter[i] {
			t.Fatalf("cached pack prediction %d = %d, fresh pack = %d", i, gotAfter[i], wantAfter[i])
		}
		if gotAfter[i] != wantBefore[i] {
			same = false
		}
	}
	if same {
		t.Fatal("update did not change any prediction; invalidation untested")
	}
}

func TestPredictBatchIntoMatchesPredictBatch(t *testing.T) {
	for _, d := range []int{64, 70, 128, 257} {
		m, rng := randModel(t, int64(d), 6, d)
		hvs := randHVs(rng, 40, d)
		pm := m.Packed()
		want := pm.PredictBatch(hvs)
		preds := make([]int, 40)
		q := make([]uint64, pm.WordsPerRow())
		pm.PredictBatchInto(hvs, preds, q)
		for i := range want {
			if preds[i] != want[i] {
				t.Fatalf("D=%d row %d: PredictBatchInto=%d PredictBatch=%d", d, i, preds[i], want[i])
			}
		}
	}
}

func TestServingScorersZeroAlloc(t *testing.T) {
	m, rng := randModel(t, 17, 5, 70)
	hvs := randHVs(rng, 16, 70)
	pm := m.Packed()
	preds := make([]int, 16)
	q := make([]uint64, pm.WordsPerRow())
	if a := testing.AllocsPerRun(50, func() { pm.PredictBatchInto(hvs, preds, q) }); a != 0 {
		t.Fatalf("PredictBatchInto allocated %.1f times per run", a)
	}
}

// BenchmarkPackedPredictCached vs BenchmarkPackedPredictRepack is the
// regression pair for the Pipeline.classify fix: the old path re-packed all
// K·D weights per call, so its cost scales with model size instead of query
// count.
func BenchmarkPackedPredictCached(b *testing.B) {
	rng := tensor.NewRNG(3)
	m := NewModel(10, 4096)
	rng.FillNormal(m.M, 0, 1)
	m.Invalidate()
	hvs := tensor.New(8, 4096)
	rng.FillBipolar(hvs)
	preds := make([]int, 8)
	pm := m.Packed()
	q := make([]uint64, pm.WordsPerRow())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Packed().PredictBatchInto(hvs, preds, q)
	}
}

func BenchmarkPackedPredictRepack(b *testing.B) {
	rng := tensor.NewRNG(3)
	m := NewModel(10, 4096)
	rng.FillNormal(m.M, 0, 1)
	m.Invalidate()
	hvs := tensor.New(8, 4096)
	rng.FillBipolar(hvs)
	preds := make([]int, 8)
	q := make([]uint64, (4096+63)/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackModel(m).PredictBatchInto(hvs, preds, q)
	}
}
