package hdlearn

import (
	"fmt"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// PackedModel is the deployment form of an HD classifier: class hypervectors
// sign-quantized to one bit per dimension, scored with XOR + popcount instead
// of float32 dot products — the binary inference kernel the paper maps to GPU
// constant memory and the FPGA DPU (Sec. VI). For bipolar queries its argmax
// is mathematically identical to cosine argmax over the sign-quantized float
// model: all class norms equal √D, so ordering by popcount dot and ordering
// by cosine coincide (see TestPackedPredictAgreesWithFloat).
type PackedModel struct {
	K, D int
	// wpr is the number of uint64 words per class row.
	wpr int
	// words holds all class rows contiguously, row k at [k*wpr, (k+1)*wpr).
	words []uint64
}

// PackModel sign-quantizes m's class hypervectors into packed binary form.
func PackModel(m *Model) *PackedModel {
	wpr := (m.D + 63) / 64
	pm := &PackedModel{K: m.K, D: m.D, wpr: wpr, words: make([]uint64, m.K*wpr)}
	for k := 0; k < m.K; k++ {
		tensor.PackSignsInto(pm.words[k*wpr:(k+1)*wpr], m.M.Row(k))
	}
	return pm
}

// predictWords returns the argmax class of one packed query (ties broken
// toward the lowest class index, matching the float path). Hamming distances
// run through the vectorized XOR-popcount kernel; the count is an exact
// integer, so predictions are identical to the scalar loop.
func (pm *PackedModel) predictWords(q []uint64) int {
	best, at := -pm.D-1, 0
	for k := 0; k < pm.K; k++ {
		row := pm.words[k*pm.wpr : (k+1)*pm.wpr]
		ham := tensor.XorPopcount(row, q)
		if dot := pm.D - 2*ham; dot > best {
			best, at = dot, k
		}
	}
	return at
}

// DotsInto writes every class's popcount dot product with one packed query
// row (length ≥ WordsPerRow(), tail bits zero): out[k] = D − 2·ham(q, M_k).
// The engine's tail packs sign bits block by block into such rows and scores
// them here without ever holding a dense hypervector.
func (pm *PackedModel) DotsInto(out []int32, q []uint64) {
	if len(out) < pm.K {
		panic(fmt.Sprintf("hdlearn: DotsInto out length %d < K=%d", len(out), pm.K))
	}
	for k := 0; k < pm.K; k++ {
		row := pm.words[k*pm.wpr : (k+1)*pm.wpr]
		ham := tensor.XorPopcount(row, q)
		out[k] = int32(pm.D - 2*ham)
	}
}

// PredictBatch classifies every row of hvs ([N, D]), packing queries on the
// fly and scoring with popcount; rows are processed in parallel.
func (pm *PackedModel) PredictBatch(hvs *tensor.Tensor) []int {
	if hvs.Rank() != 2 || hvs.Shape[1] != pm.D {
		panic(fmt.Sprintf("hdlearn: PredictBatch expects [N %d], got %v", pm.D, hvs.Shape))
	}
	n := hvs.Shape[0]
	preds := make([]int, n)
	// Per row: D/64·K word ops of scoring plus D packing ops.
	grain := 1 + (1<<14)/(pm.wpr*pm.K+pm.D+1)
	parallel.For(n, grain, func(lo, hi int) {
		q := make([]uint64, pm.wpr)
		for i := lo; i < hi; i++ {
			tensor.PackSignsInto(q, hvs.Row(i))
			preds[i] = pm.predictWords(q)
		}
	})
	return preds
}

// Accuracy scores the packed model on a labelled hypervector set.
func (pm *PackedModel) Accuracy(hvs *tensor.Tensor, labels []int) float64 {
	preds := pm.PredictBatch(hvs)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// MemoryBytes is the packed storage footprint: K rows of ⌈D/64⌉ words.
func (pm *PackedModel) MemoryBytes() int64 {
	return int64(pm.K) * int64(pm.wpr) * 8
}
