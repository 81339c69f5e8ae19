package hdlearn

import (
	"fmt"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// Version returns the model's mutation counter. Every method that writes
// class hypervectors bumps it; consumers that derive state from M (the packed
// cache below, the serving engine's compiled snapshot) compare versions to
// detect staleness instead of diffing K·D floats.
func (m *Model) Version() uint64 { return m.version }

// Invalidate bumps the mutation counter. All package mutators call it;
// callers that write m.M directly (deserialization, benchmarks) must call it
// themselves.
func (m *Model) Invalidate() { m.version++ }

// Packed returns the sign-quantized packed form of the model, cached until
// the next mutation. Before this cache, the packed predict path re-packed all
// K·D weights on every call, so packed "inference" scaled with pack cost
// instead of query cost (see BenchmarkPackedPredictCached). Not safe for
// concurrent use with mutations — like every other method on Model.
func (m *Model) Packed() *PackedModel {
	if m.packed == nil || m.packedVersion != m.version {
		m.packed = PackModel(m)
		m.packedVersion = m.version
	}
	return m.packed
}

// PredictBatchInto is the serving form of PredictBatch: strictly serial,
// writing predictions into preds (length N) using caller-owned packing
// scratch q (length WordsPerRow()). Zero heap allocations.
func (pm *PackedModel) PredictBatchInto(hvs *tensor.Tensor, preds []int, q []uint64) {
	if hvs.Rank() != 2 || hvs.Shape[1] != pm.D {
		panic(fmt.Sprintf("hdlearn: PredictBatchInto expects [N %d], got %v", pm.D, hvs.Shape))
	}
	n := hvs.Shape[0]
	if len(preds) != n {
		panic(fmt.Sprintf("hdlearn: PredictBatchInto preds length %d, want %d", len(preds), n))
	}
	if len(q) < pm.wpr {
		panic(fmt.Sprintf("hdlearn: PredictBatchInto scratch %d words, want %d", len(q), pm.wpr))
	}
	q = q[:pm.wpr]
	for i := 0; i < n; i++ {
		hdc.PackRowInto(q, hvs.Row(i))
		preds[i] = pm.predictWords(q)
	}
}

// WordsPerRow returns the packed row stride in uint64 words (⌈D/64⌉), the
// scratch length PredictBatchInto requires.
func (pm *PackedModel) WordsPerRow() int { return pm.wpr }

// FloatScorer is the full-row cosine reference that FoldedScorer is tested
// against: an immutable snapshot of a Model with class norms precomputed,
// scoring serially with zero allocations. Its predictions match
// ArgmaxRows(Model.SimilarityBatch(hvs)) bit-for-bit: the same dot kernel
// (tensor.DotFast == the MatMulT inner kernel), the same float64 cosine
// division with den==0 → 0, and the same first-wins strict-> argmax.
type FloatScorer struct {
	K, D  int
	m     *tensor.Tensor // [K, D] snapshot of class hypervectors
	norms []float64      // per-class L2 norms
}

// NewFloatScorer snapshots m (deep copy) into an immutable scorer. The copy
// decouples the scorer from further training on m; compile a new scorer (or
// a new engine) to pick up updated weights.
func NewFloatScorer(m *Model) *FloatScorer {
	s := &FloatScorer{K: m.K, D: m.D, m: m.M.Clone(), norms: make([]float64, m.K)}
	for k := 0; k < m.K; k++ {
		s.norms[k] = hdc.Hypervector(s.m.Row(k)).Norm()
	}
	return s
}

// PredictInto classifies every row of hvs ([N, D]) into preds (length N).
func (s *FloatScorer) PredictInto(hvs *tensor.Tensor, preds []int) {
	if hvs.Rank() != 2 || hvs.Shape[1] != s.D {
		panic(fmt.Sprintf("hdlearn: FloatScorer expects [N %d], got %v", s.D, hvs.Shape))
	}
	n := hvs.Shape[0]
	if len(preds) != n {
		panic(fmt.Sprintf("hdlearn: FloatScorer preds length %d, want %d", len(preds), n))
	}
	for i := 0; i < n; i++ {
		h := hvs.Row(i)
		hn := hdc.Hypervector(h).Norm()
		var best float32
		at := 0
		for k := 0; k < s.K; k++ {
			dot := tensor.DotFast(h, s.m.Row(k))
			var sim float32
			if den := hn * s.norms[k]; den != 0 {
				sim = float32(float64(dot) / den)
			}
			if k == 0 || sim > best {
				best, at = sim, k
			}
		}
		preds[i] = at
	}
}
