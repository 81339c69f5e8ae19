package hdlearn

import (
	"testing"

	"nshd/internal/tensor"
)

// signedQueries samples n bipolar query rows — the only query form the
// serving tail produces (sign(·) output).
func signedQueries(seed int64, n, d int) *tensor.Tensor {
	q := tensor.New(n, d)
	tensor.NewRNG(seed).FillBipolar(q)
	return q
}

// blockwisePredict classifies signed query rows the way the engine's tail
// does: per 256-column block, raw float32 BlockScores folded into float64 in
// block order, then the shared ArgmaxInto.
func blockwisePredict(s *FoldedScorer, queries *tensor.Tensor) []int {
	const bc = 256
	n := queries.Shape[0]
	acc := make([]float64, n*s.K)
	bs := make([]float32, n*s.K)
	blk := make([]float32, n*bc)
	for c0 := 0; c0 < s.D; c0 += bc {
		w := min(bc, s.D-c0)
		for i := 0; i < n; i++ {
			copy(blk[i*w:(i+1)*w], queries.Row(i)[c0:c0+w])
		}
		s.BlockScores(bs, blk[:n*w], n, w, c0)
		for i, v := range bs {
			acc[i] += float64(v)
		}
	}
	preds := make([]int, n)
	ArgmaxInto(preds, acc, n, s.K)
	return preds
}

// TestFoldedScorerAgreesWithFloat pins the folded scorer's contract: for
// bipolar queries the blockwise argmax the serving tail computes matches
// FloatScorer (the full-row cosine reference) across many random models,
// class counts and dimensions, including D off the 64/256 alignments and
// D spanning several blocks.
func TestFoldedScorerAgreesWithFloat(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		k := 2 + int(seed%7)
		d := 64 + int(seed*13)%451
		m := NewModel(k, d)
		tensor.NewRNG(100+seed).FillNormal(m.M, 0, 1)
		m.Invalidate()

		queries := signedQueries(200+seed, 17, d)
		want := make([]int, 17)
		NewFloatScorer(m).PredictInto(queries, want)
		got := blockwisePredict(NewFoldedScorer(m), queries)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (K=%d D=%d): query %d folded=%d float=%d", seed, k, d, i, got[i], want[i])
			}
		}
	}
}

// TestFoldedScorerZeroNormClass: a zero class row scores 0 everywhere (the
// den==0 convention) and never panics.
func TestFoldedScorerZeroNormClass(t *testing.T) {
	const k, d = 3, 70
	m := NewModel(k, d)
	tensor.NewRNG(1).FillNormal(m.M, 0, 1)
	clear(m.M.Row(1))
	m.Invalidate()
	queries := signedQueries(2, 4, d)
	want := make([]int, 4)
	NewFloatScorer(m).PredictInto(queries, want)
	got := blockwisePredict(NewFoldedScorer(m), queries)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: folded=%d float=%d with zero-norm class", i, got[i], want[i])
		}
	}
}
