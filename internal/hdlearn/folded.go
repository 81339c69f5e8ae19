package hdlearn

import (
	"fmt"
	"math"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// FoldedScorer is the float classifier with the cosine denominator folded
// into the class matrix at compile time — the class-matrix fold of the
// engine's fused tail. It exploits a structural fact of the pipeline: query
// hypervectors are bipolar (sign(·) output, every entry ±1), so the query
// norm is exactly √D for every query and the cosine
//
//	sim(h, M_k) = ⟨h, M_k⟩ / (‖h‖·‖M_k‖)
//
// reduces to a plain dot product against the pre-scaled rows
// M̂_k = M_k / (√D·‖M_k‖). A zero-norm class keeps a zero row, reproducing
// FloatScorer's den==0 → sim=0 convention.
//
// Because the denominator is gone, scores can accumulate BLOCKWISE over
// column ranges of the query — which is what lets the fused tail score a
// gemmNC-wide projection block the moment it is computed and never
// materialize the full [N, D] hypervector batch. Partial sums accumulate in
// float64, so the block decomposition never changes a ranking that isn't
// already a float-level near-tie; agreement with FloatScorer's argmax is
// pinned by TestFoldedScorerAgreesWithFloat.
type FoldedScorer struct {
	K, D int
	mhat *tensor.Tensor // [K, D]: class rows pre-divided by √D·‖M_k‖
}

// NewFoldedScorer snapshots m into the folded form (deep copy; later
// training on m does not affect the scorer).
func NewFoldedScorer(m *Model) *FoldedScorer {
	s := &FoldedScorer{K: m.K, D: m.D, mhat: tensor.New(m.K, m.D)}
	sqrtD := math.Sqrt(float64(m.D))
	for k := 0; k < m.K; k++ {
		den := sqrtD * hdc.Hypervector(m.M.Row(k)).Norm()
		if den == 0 {
			continue
		}
		src := m.M.Row(k)
		dst := s.mhat.Row(k)
		for j := range dst {
			dst[j] = float32(float64(src[j]) / den)
		}
	}
	return s
}

// Slice returns the dimension shard of the scorer holding columns [lo, hi)
// of the folded class matrix. The rows keep the FULL-dimension fold
// M̂_k = M_k/(√D·‖M_k‖) — the denominator uses the whole class row — so
// partial dot products from disjoint shards sum to exactly the full folded
// score: ⟨h, M̂_k⟩ = Σ_s ⟨h[lo_s:hi_s], M̂_k[lo_s:hi_s]⟩. Slicing copies the
// column range; each per-block float32 dot on a shard is bit-identical to
// the same block's dot on the unsliced scorer.
func (s *FoldedScorer) Slice(lo, hi int) *FoldedScorer {
	if lo < 0 || hi > s.D || lo >= hi {
		panic(fmt.Sprintf("hdlearn: FoldedScorer.Slice [%d, %d) out of [0, %d)", lo, hi, s.D))
	}
	if lo == 0 && hi == s.D {
		return s
	}
	return &FoldedScorer{K: s.K, D: hi - lo, mhat: tensor.SliceCols(s.mhat, lo, hi)}
}

// BlockScores writes each query row's raw float32 partial score against
// columns [c0, c0+w) of the folded class matrix: dst[i*K + k] =
// ⟨blk_i, M̂_k[c0:c0+w]⟩ for the n rows of blk (a compact [n, w] tile of
// signed query columns). The engine's tail folds these per-block float32
// values into float64 in block order; emitting them raw is what lets a
// dimension shard ship partial scores over the wire and a reducer replay the
// identical float64 accumulation order, bit-exact against the unsharded
// engine.
func (s *FoldedScorer) BlockScores(dst []float32, blk []float32, n, w, c0 int) {
	if c0 < 0 || c0+w > s.D {
		panic(fmt.Sprintf("hdlearn: BlockScores columns [%d,%d) outside D=%d", c0, c0+w, s.D))
	}
	for i := 0; i < n; i++ {
		row := blk[i*w : (i+1)*w]
		out := dst[i*s.K : (i+1)*s.K]
		for k := 0; k < s.K; k++ {
			out[k] = tensor.DotFast(row, s.mhat.Row(k)[c0:c0+w])
		}
	}
}

// ModelBytes is the folded snapshot's storage: K·D float32s.
func (s *FoldedScorer) ModelBytes() int64 { return int64(s.K) * int64(s.D) * 4 }

// Row exposes folded class row k (M̂_k, read-only): the per-dimension score
// contributions that drive the compression pass's saliency metric and feed
// the sub-byte row quantizers.
func (s *FoldedScorer) Row(k int) []float32 { return s.mhat.Row(k) }
