package hdlearn

import (
	"testing"

	"nshd/internal/tensor"
)

// SignQuantized returns a float-precision copy of m with every class
// hypervector sign-quantized (±1, sign(0) = +1) — the reference model whose
// predictions PackModel reproduces exactly.
func (m *Model) SignQuantized() *Model {
	return &Model{K: m.K, D: m.D, M: tensor.Sign(m.M)}
}

// randModel returns a real-valued model and a batch of bipolar queries.
func randPackedCase(seed int64, k, d, n int) (*Model, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	m := NewModel(k, d)
	rng.FillNormal(m.M, 0, 1)
	// Plant exact zeros to pin the sign(0) = +1 convention on both paths.
	for i := 0; i < len(m.M.Data); i += 97 {
		m.M.Data[i] = 0
	}
	q := tensor.New(n, d)
	rng.FillNormal(q, 0, 1)
	return m, tensor.Sign(q)
}

// TestPackedPredictAgreesWithFloat is the property test for the binary
// inference path: for every sign-quantized model and bipolar query batch, the
// popcount argmax must equal the float32 cosine argmax exactly — including
// dimensions not divisible by 64 and tie-prone tiny D.
func TestPackedPredictAgreesWithFloat(t *testing.T) {
	for _, tc := range []struct{ k, d, n int }{
		{2, 64, 33},
		{5, 100, 40},
		{3, 130, 21},
		{7, 257, 64},
		{10, 1000, 128},
		{4, 65, 1},
	} {
		m, q := randPackedCase(int64(tc.k*1000+tc.d), tc.k, tc.d, tc.n)
		quant := m.SignQuantized()
		want := quant.PredictBatch(q)
		pm := PackModel(m)
		got := pm.PredictBatch(q)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("K=%d D=%d: sample %d packed=%d float=%d", tc.k, tc.d, i, got[i], want[i])
			}
		}
	}
}

func TestPackedAccuracyMatchesFloat(t *testing.T) {
	m, q := randPackedCase(7, 6, 500, 200)
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = i % 6
	}
	want := m.SignQuantized().Accuracy(q, labels)
	got := PackModel(m).Accuracy(q, labels)
	if got != want {
		t.Fatalf("packed accuracy %v, float accuracy %v", got, want)
	}
}

func TestPackedModelMemory(t *testing.T) {
	m := NewModel(10, 1000)
	pm := PackModel(m)
	if pm.MemoryBytes() != 10*16*8 {
		t.Fatalf("MemoryBytes = %d", pm.MemoryBytes())
	}
	if ratio := float64(m.MemoryBytes(false)) / float64(pm.MemoryBytes()); ratio < 30 {
		t.Fatalf("packed model only %.1fx smaller", ratio)
	}
}

// TestPackedDotsIntoMatchesPredict: the engine's sign-word path (DotsInto,
// then the int32 ArgmaxInto) picks the class predictWords picks, at a
// dimension with a ragged last word.
func TestPackedDotsIntoMatchesPredict(t *testing.T) {
	const k, d = 7, 533
	m, queries := randPackedCase(17, k, d, 13)
	pm := PackModel(m)
	dots := make([]int32, k)
	q := make([]uint64, pm.WordsPerRow())
	for i := 0; i < queries.Shape[0]; i++ {
		tensor.PackSignsInto(q, queries.Row(i))
		pm.DotsInto(dots, q)
		var at [1]int
		ArgmaxInto(at[:], dots, 1, k)
		if want := pm.predictWords(q); at[0] != want {
			t.Fatalf("query %d: DotsInto argmax %d != packed predict %d", i, at[0], want)
		}
	}
}
