package hdlearn_test

// External test package: internal/quant imports hdlearn, so exercising the
// scorers against the real row quantizers has to happen from outside.

import (
	"math/rand"
	"testing"

	"nshd/internal/hdlearn"
	"nshd/internal/quant"
	"nshd/internal/tensor"
)

func randModel(rng *rand.Rand, k, d int) *hdlearn.Model {
	m := tensor.New(k, d)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return &hdlearn.Model{K: k, D: d, M: m}
}

func randQuery(rng *rand.Rand, d int) ([]float32, []uint64) {
	row := make([]float32, d)
	for i := range row {
		row[i] = 1
		if rng.Intn(2) == 1 {
			row[i] = -1
		}
	}
	q := make([]uint64, (d+63)/64)
	tensor.PackSignsInto(q, row)
	return row, q
}

// TestSubByteScorerDotsExact checks both precisions' integer dots against a
// brute-force fold of the quantized rows, including a ragged dimension.
func TestSubByteScorerDotsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{256, 750, 1000} {
		const k = 7
		m := randModel(rng, k, d)
		folded := hdlearn.FoldedRows(m)

		i4 := hdlearn.NewInt4Scorer(m, quant.QuantizeInt4Row)
		tern := hdlearn.NewTernaryScorer(m, quant.QuantizeTernaryRow)
		if i4.Name() != "int4" || tern.Name() != "ternary" {
			t.Fatalf("names %q %q", i4.Name(), tern.Name())
		}

		vals := make([]int8, d)
		for trial := 0; trial < 10; trial++ {
			row, q := randQuery(rng, d)
			dotsI4 := make([]int32, k)
			dotsT := make([]int32, k)
			i4.DotsInto(dotsI4, q)
			tern.DotsInto(dotsT, q)
			for c := 0; c < k; c++ {
				sI4 := quant.QuantizeInt4Row(vals, folded.Row(c))
				var want int32
				for j := range vals {
					want += int32(row[j]) * int32(vals[j])
				}
				if dotsI4[c] != want {
					t.Fatalf("d=%d trial=%d class=%d: int4 dot %d, want %d", d, trial, c, dotsI4[c], want)
				}
				if sI4 != i4.Scales()[c] {
					t.Fatalf("d=%d class=%d: int4 scale %v, want %v", d, c, i4.Scales()[c], sI4)
				}
				sT := quant.QuantizeTernaryRow(vals, folded.Row(c))
				want = 0
				for j := range vals {
					want += int32(row[j]) * int32(vals[j])
				}
				if dotsT[c] != want {
					t.Fatalf("d=%d trial=%d class=%d: ternary dot %d, want %d", d, trial, c, dotsT[c], want)
				}
				if sT != tern.Scales()[c] {
					t.Fatalf("d=%d class=%d: ternary scale %v, want %v", d, c, tern.Scales()[c], sT)
				}
			}
		}
	}
}

// TestSubByteScorerRanking: on well-separated classes (each class row IS a
// scaled bipolar prototype) both quantized scorers must reproduce the float
// scorer's predictions exactly.
func TestSubByteScorerRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const k, d, n = 5, 768, 40
	m := tensor.New(k, d)
	for c := 0; c < k; c++ {
		row := m.Row(c)
		for j := range row {
			row[j] = float32(1+c) * 0.5
			if rng.Intn(2) == 1 {
				row[j] = -row[j]
			}
		}
	}
	model := &hdlearn.Model{K: k, D: d, M: m}
	i4 := hdlearn.NewInt4Scorer(model, quant.QuantizeInt4Row)
	tern := hdlearn.NewTernaryScorer(model, quant.QuantizeTernaryRow)

	hvs := tensor.New(n, d)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		copy(hvs.Row(i), m.Row(c))
		row := hvs.Row(i)
		for j := range row { // re-sign to ±1 with ~6% flips
			s := float32(1)
			if row[j] < 0 {
				s = -1
			}
			if rng.Intn(16) == 0 {
				s = -s
			}
			row[j] = s
		}
	}
	hdlearn.NewFloatScorer(model).PredictInto(hvs, want)

	q := make([]uint64, (d+63)/64)
	dots := make([]int32, k)
	preds := make([]int, 1)
	for i := 0; i < n; i++ {
		tensor.PackSignsInto(q, hvs.Row(i))
		i4.DotsInto(dots, q)
		hdlearn.ArgmaxScaledInto(preds, dots, i4.Scales(), 1, k)
		if preds[0] != want[i] {
			t.Fatalf("sample %d: int4 pred %d, float pred %d", i, preds[0], want[i])
		}
		tern.DotsInto(dots, q)
		hdlearn.ArgmaxScaledInto(preds, dots, tern.Scales(), 1, k)
		if preds[0] != want[i] {
			t.Fatalf("sample %d: ternary pred %d, float pred %d", i, preds[0], want[i])
		}
	}
}

// TestSubByteScorerDeterminism: two constructions from the same model are
// byte-identical in dots and scales.
func TestSubByteScorerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randModel(rng, 6, 512)
	a := hdlearn.NewInt4Scorer(m, quant.QuantizeInt4Row)
	b := hdlearn.NewInt4Scorer(m, quant.QuantizeInt4Row)
	_, q := randQuery(rng, 512)
	da, db := make([]int32, 6), make([]int32, 6)
	a.DotsInto(da, q)
	b.DotsInto(db, q)
	for c := range da {
		if da[c] != db[c] || a.Scales()[c] != b.Scales()[c] {
			t.Fatalf("class %d: non-deterministic construction", c)
		}
	}
	if a.MemoryBytes() != b.MemoryBytes() || a.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes %d vs %d", a.MemoryBytes(), b.MemoryBytes())
	}
}
