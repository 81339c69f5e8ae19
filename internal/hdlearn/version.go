package hdlearn

import (
	"fmt"

	"nshd/internal/tensor"
)

// Invalidate bumps the model's mutation counter. Every method that writes
// class hypervectors calls it; state derived from M (the packed cache below,
// the class norms) compares counters to detect staleness instead of diffing
// K·D floats. Callers that write m.M directly (deserialization, benchmarks)
// must call it themselves.
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
		tensor.PackSignsInto(q, hvs.Row(i))
		preds[i] = pm.predictWords(q)
	}
}

// WordsPerRow returns the packed row stride in uint64 words (⌈D/64⌉), the
// scratch length PredictBatchInto requires.
func (pm *PackedModel) WordsPerRow() int { return pm.wpr }
