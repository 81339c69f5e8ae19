package hdlearn

import (
	"fmt"
	"math"
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
// Model.PredictBatch (the full-row cosine reference) across many random models,
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
		want := m.PredictBatch(queries)
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
	want := m.PredictBatch(queries)
	got := blockwisePredict(NewFoldedScorer(m), queries)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: folded=%d float=%d with zero-norm class", i, got[i], want[i])
		}
	}
}

// randomModel returns a K-class model with N(0,1) class rows (a literal:
// NewModel refuses the K = 1 the scorer must still handle).
func randomModel(seed int64, k, d int) *Model {
	m := &Model{K: k, D: d, M: tensor.New(k, d)}
	tensor.NewRNG(seed).FillNormal(m.M, 0, 1)
	m.Invalidate()
	return m
}

// TestBlockScoresMatchesNaive covers the strip path no K ≤ 10 fixture
// reaches: zero, one and several 16-class strips with and without ragged
// classes, more than one 256-class panel block (K = 300), every block width
// and every row-group shape of the micro-kernels. Each score must agree with
// a float64 dot of the folded rows, and must not depend on where its query
// row sits: row i scored alone is bit-identical to row i inside the batch —
// what makes batch-1 and batch-64 serving agree.
func TestBlockScoresMatchesNaive(t *testing.T) {
	for _, k := range []int{1, 15, 16, 17, 32, 100, 300} {
		for _, w := range []int{1, 16, 21, 255, 256} {
			// The scored block is the grid's second and last: [256, 256+w).
			const c0 = 256
			d := c0 + w
			m := randomModel(int64(k), k, d)
			rows := FoldedRows(m)
			s := NewFoldedScorer(m)
			for _, n := range []int{1, 3, 4, 5, 64, 65} {
				blk := signedQueries(int64(1000*k+10*w+n), n, w).Data
				got := make([]float32, n*k)
				for i := range got {
					got[i] = float32(math.NaN()) // BlockScores must overwrite, not accumulate
				}
				s.BlockScores(got, blk, n, w, c0)
				one := make([]float32, k)
				for i := 0; i < n; i++ {
					s.BlockScores(one, blk[i*w:(i+1)*w], 1, w, c0)
					for c := 0; c < k; c++ {
						var want float64
						for j := 0; j < w; j++ {
							want += float64(blk[i*w+j]) * float64(rows.Row(c)[c0+j])
						}
						// |M̂| ≤ 1/√D per entry and |h| = 1: a w-term float32 chain
						// errs by at most w·ε·Σ|terms| ≤ w²·2⁻²⁴/√D.
						tol := float64(w*w) / (1 << 24) / math.Sqrt(float64(d))
						if g := float64(got[i*k+c]); math.IsNaN(g) || math.Abs(g-want) > tol {
							t.Fatalf("K=%d w=%d n=%d row %d class %d: %v, want %v ± %v", k, w, n, i, c, g, want, tol)
						}
						if math.Float32bits(one[c]) != math.Float32bits(got[i*k+c]) {
							t.Fatalf("K=%d w=%d n=%d row %d class %d: alone %v != in batch %v", k, w, n, i, c, one[c], got[i*k+c])
						}
					}
				}
			}
		}
	}
}

// TestFoldedScorerModelBytes: ModelBytes is the length of what is resident
// (strips + ragged rows), and that is K·D float32s — nothing is stored twice
// or padded.
func TestFoldedScorerModelBytes(t *testing.T) {
	const d = 533
	for _, k := range []int{1, 10, 16, 17, 100} {
		s := NewFoldedScorer(randomModel(int64(k), k, d))
		if got, want := s.ModelBytes(), int64(k)*d*4; got != want {
			t.Fatalf("K=%d: ModelBytes %d, want %d", k, got, want)
		}
	}
}

// BenchmarkBlockScores times one full scoring pass (every 256-column block
// of D = 10 000) at the paper's CIFAR-10 and CIFAR-100 class counts, at
// batch 1 and at the serving chunk.
func BenchmarkBlockScores(b *testing.B) {
	const d, bc = 10000, 256
	for _, k := range []int{10, 100} {
		s := NewFoldedScorer(randomModel(1, k, d))
		for _, n := range []int{1, 64} {
			blk := signedQueries(2, n, bc).Data
			dst := make([]float32, n*k)
			b.Run(fmt.Sprintf("n=%d/K=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for c0 := 0; c0 < d; c0 += bc {
						w := min(bc, d-c0)
						s.BlockScores(dst, blk[:n*w], n, w, c0)
					}
				}
				b.ReportMetric(float64(n)*float64(k)*d*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
