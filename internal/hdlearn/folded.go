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
// Model.SimilarityBatch's den==0 → sim=0 convention.
//
// Because the denominator is gone, scores can accumulate BLOCKWISE over
// column ranges of the query — which is what lets the fused tail score a
// gemmNC-wide projection block the moment it is computed and never
// materialize the full [N, D] hypervector batch. Partial sums accumulate in
// float64, so the block decomposition never changes a ranking that isn't
// already a float-level near-tie; agreement with Model.PredictBatch's argmax
// is pinned by TestFoldedScorerAgreesWithFloat.
//
// Scoring a block is one K block of the GEMM S[n, D]·M̂ᵀ[D, K], so classes
// [0, ns), ns = tensor.PanelStripCols(K), live ONLY as that GEMM's prepacked
// 16-class strips and the ragged classes [ns, K) — every class on the
// portable build — ONLY as class-major rows. Which kernel scores class k
// depends on k and the build alone, never on batch size or row position.
type FoldedScorer struct {
	K, D   int
	strips *tensor.ProjPanels // M̂ᵀ[:, :ns] as [D, ns] panels; nil when ns == 0
	rows   *tensor.Tensor     // [K−ns, D]: folded rows of classes [ns, K)
}

// FoldedRows returns m's class rows with the cosine denominator folded in,
// M̂_k = M_k/(√D·‖M_k‖), as a fresh [K, D] tensor (zero-norm classes stay
// zero): the fold without the pack, the reference the scorer's tests read.
func FoldedRows(m *Model) *tensor.Tensor {
	mhat := tensor.New(m.K, m.D)
	sqrtD := math.Sqrt(float64(m.D))
	for k := 0; k < m.K; k++ {
		den := sqrtD * hdc.Hypervector(m.M.Row(k)).Norm()
		if den == 0 {
			continue
		}
		src := m.M.Row(k)
		dst := mhat.Row(k)
		for j := range dst {
			dst[j] = float32(float64(src[j]) / den)
		}
	}
	return mhat
}

// NewFoldedScorer snapshots m into the folded, packed form (later training on
// m does not affect the scorer).
func NewFoldedScorer(m *Model) *FoldedScorer {
	mhat := FoldedRows(m)
	s := &FoldedScorer{K: m.K, D: m.D, rows: mhat}
	if ns := tensor.PanelStripCols(m.K); ns > 0 {
		s.strips = tensor.PrepackPanels(tensor.Transpose(tensor.FromSlice(mhat.Data[:ns*m.D], ns, m.D)))
		// A copy, so the strip classes' rows do not stay resident behind it.
		s.rows = tensor.FromSlice(append([]float32(nil), mhat.Data[ns*m.D:]...), m.K-ns, m.D)
	}
	return s
}

// BlockScores writes each query row's raw float32 partial score against
// columns [c0, c0+w) of the folded class matrix: dst[i*K + k] =
// ⟨blk_i, M̂_k[c0:c0+w]⟩ for the n rows of blk (a compact [n, w] tile of
// signed query columns; one block of the 256-column grid). The engine's tail
// folds these per-block float32 values into float64 in block order. Strip
// classes are a single FMA chain from +0, column ascending, in the 4-row and
// the 1-row micro-kernel alike (written without clearing dst first: the
// kernels start the block at +0); the others are DotFast, scored as one
// [n × (K−ns)] tile.
func (s *FoldedScorer) BlockScores(dst []float32, blk []float32, n, w, c0 int) {
	if c0 < 0 || c0+w > s.D {
		panic(fmt.Sprintf("hdlearn: BlockScores columns [%d,%d) outside D=%d", c0, c0+w, s.D))
	}
	if s.strips != nil {
		tensor.MatMulPanelsKBlock(dst, s.K, blk, w, n, s.strips, c0, c0+w, nil)
	}
	if ns := s.K - s.rows.Shape[0]; ns < s.K {
		tensor.DotTile(dst[ns:], s.K, blk, w, n, s.rows.Data[c0:], s.D, s.K-ns, w)
	}
}

// ModelBytes is the resident folded snapshot: the strips plus the ragged
// rows, K·D float32s between them.
func (s *FoldedScorer) ModelBytes() int64 {
	b := int64(s.rows.Len()) * 4
	if s.strips != nil {
		b += s.strips.MemoryBytes()
	}
	return b
}
