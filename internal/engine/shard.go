package engine

import (
	"fmt"
	"math"

	"nshd/internal/core"
	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

// Dimension-sharded scoring. HD class scores are dot products over the D
// hypervector dimensions, so they are additive across disjoint dimension
// ranges: for any partition [lo_0, hi_0) ∪ … ∪ [lo_{S−1}, hi_{S−1}) of
// [0, D),
//
//	⟨h, M_k⟩ = Σ_s ⟨h[lo_s:hi_s], M_k[lo_s:hi_s]⟩
//
// CompileShard freezes an engine that computes only its slice's partial
// scores — its projection columns, its class-model columns, its slice of the
// folded bias — and MergeScores add-reduces the partials into exactly the
// score vector the unsharded engine accumulates, bit for bit:
//
//   - Packed kernel: each shard emits int32 dots w_s − 2·ham_s, whose sum
//     over shards is the full model's D − 2·ham. Integer addition is
//     associative, so any grouping is exact.
//   - Float kernel: float64 addition is NOT associative, so shards do not
//     pre-reduce. Each shard emits the raw float32 score of every 256-column
//     GEMM block (the exact values the unsharded fused tail folds), and
//     MergeScores folds them into float64 in global block order — the
//     identical sequence of additions the unsharded engine performs, for any
//     shard count.
//
// Shard boundaries are aligned to tensor.PanelBlockCols() (256), preserving
// the global block grid: a shard's GEMM blocks are exactly a sub-range of
// the unsharded engine's blocks, so every block value is bit-identical
// (MatMulPanelsBlock's column independence), block packing writes the same
// words, and 256 | boundaries keeps the packed models' word grids aligned.

// ShardBounds partitions hypervector dimension d into `of` contiguous
// column ranges aligned to the GEMM panel block (256 columns), balanced to
// within one block; the last shard absorbs the ragged d % 256 tail. Errors
// when of exceeds the number of blocks (an empty shard can contribute
// nothing).
func ShardBounds(d, of int) ([][2]int, error) {
	if d < 1 {
		return nil, fmt.Errorf("engine: ShardBounds d=%d", d)
	}
	if of < 1 {
		return nil, fmt.Errorf("engine: ShardBounds of=%d", of)
	}
	bc := tensor.PanelBlockCols()
	nb := (d + bc - 1) / bc
	if of > nb {
		return nil, fmt.Errorf("engine: %d shards but D=%d has only %d %d-column blocks", of, d, nb, bc)
	}
	bounds := make([][2]int, of)
	for s := 0; s < of; s++ {
		lo := s * nb / of * bc
		hi := (s + 1) * nb / of * bc
		if hi > d {
			hi = d
		}
		bounds[s] = [2]int{lo, hi}
	}
	return bounds, nil
}

// CompileShard freezes shard `shard` of `of` dimension shards: an Engine
// identical to Compile's except that its tail holds only hypervector columns
// [lo, hi) of the projection and class model (per ShardBounds) and scores
// only those. Every projection backing (prepacked, rematerialized, folded)
// and both kernels shard; WithRemat shards regenerate exactly their own
// columns from the shared 8-byte projection seed. Compile(p) is the of=1
// special case — the single-engine path and the sharded path are the same
// code.
//
// A shard's own Predict/PredictInto return the argmax of its PARTIAL scores
// (meaningful only for of=1); sharded serving uses PartialInto + MergeScores.
// QueryHVs returns the shard's D-slice columns of the full query
// hypervectors.
func CompileShard(p *core.Pipeline, shard, of int, opts ...Option) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("engine: nil pipeline")
	}
	bounds, err := ShardBounds(p.Cfg.D, of)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("engine: shard %d out of %d", shard, of)
	}
	return compile(p, bounds[shard][0], bounds[shard][1], opts)
}

// Shard reports the hypervector column range [lo, hi) this engine scores —
// [0, FullDim()) for an unsharded engine.
func (e *Engine) Shard() (lo, hi int) { return e.lo, e.lo + e.d }

// FullDim reports the full hypervector dimension of the model the engine
// was compiled from (== Dim() when unsharded).
func (e *Engine) FullDim() int { return e.fullD }

// PackedKernel reports whether the engine scores with the packed (popcount)
// classifier — its partial scores are int32 dots — or the float kernel.
func (e *Engine) PackedKernel() bool { return e.tail.words != nil }

// ModelVersion is a content hash identifying the compiled model: the HD
// class matrix, the projection (its seed, or its dense matrix when
// unseeded), and the shape facts (D, K). Every shard of one trained model
// reports the same version regardless of slice or projection backing;
// retraining changes it. A COMPRESSED engine mixes its plan into the hash (see
// CompressPlan.mixVersion) — it serves different predictions, so it must
// never be mistaken for the source model. The serving tier uses the version
// to gate rollout: a router only switches traffic to a new version once every
// shard advertises it.
func (e *Engine) ModelVersion() uint64 { return e.version }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> uint(s)) & 0xff
		h *= fnvPrime64
	}
	return h
}

func modelVersionHash(p *core.Pipeline) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(p.Cfg.D))
	h = fnvMix(h, uint64(p.HD.K))
	for _, v := range p.HD.M.Data {
		h = fnvMix(h, uint64(math.Float32bits(v)))
	}
	if p.Proj.Seeded {
		h = fnvMix(h, 1)
		h = fnvMix(h, uint64(p.Proj.Seed))
	} else {
		h = fnvMix(h, 2)
		for _, v := range p.Proj.P.Data {
			h = fnvMix(h, uint64(math.Float32bits(v)))
		}
	}
	return h
}

// PartialScores carries one shard's raw partial scores for a batch — the
// wire unit of the sharded serving tier.
//
// Packed kernel: Ints[i*K + k] is the shard's int32 popcount dot for sample
// i, class k (exactly additive across shards).
//
// Float kernel: Floats is block-major — Floats[(b*N + i)*K + k] is the raw
// float32 score of sample i, class k against the shard's b-th 256-column
// GEMM block. Per-block values (not a per-shard sum) are what make the
// reduce bit-exact: the merger folds them into float64 in global block
// order, replaying the unsharded engine's accumulation sequence.
type PartialScores struct {
	N, K   int
	Lo, Hi int // hypervector column range of the emitting shard
	FullD  int // full model dimension (the ranges of a merge tile [0, FullD))
	Packed bool
	Ints   []int32
	Floats []float32
	// Scales, non-nil only for a compressed engine's sub-byte kernel, holds
	// the K per-class dequantization scales: the merged integer dots must be
	// scale-multiplied (in float64) before classes are compared. Sub-byte
	// engines never shard (they are full-range by construction), so scaled
	// partials always cover [0, FullD) on their own; MergeScores still
	// validates scale agreement for defense in depth. The slice aliases the
	// engine's scorer — read-only.
	Scales []float32
}

// Blocks returns the number of 256-column GEMM blocks in the shard's range.
func (ps *PartialScores) Blocks() int {
	bc := tensor.PanelBlockCols()
	return (ps.Hi - ps.Lo + bc - 1) / bc
}

// NewPartials allocates a PartialScores sized for an n-sample batch on this
// engine's shard and kernel.
func (e *Engine) NewPartials(n int) *PartialScores {
	ps := &PartialScores{}
	e.ResizePartials(ps, n)
	return ps
}

// ResizePartials re-shapes ps for an n-sample batch on this engine,
// reusing the backing arrays when capacity allows — the pooling hook for
// allocation-free serving.
func (e *Engine) ResizePartials(ps *PartialScores, n int) {
	ps.N, ps.K = n, e.tail.k
	ps.Lo, ps.Hi, ps.FullD = e.lo, e.lo+e.d, e.fullD
	ps.Packed = e.tail.words != nil
	ps.Scales = e.tail.scales()
	if ps.Packed {
		ps.Floats = ps.Floats[:0]
		need := n * ps.K
		if cap(ps.Ints) < need {
			ps.Ints = make([]int32, need)
		}
		ps.Ints = ps.Ints[:need]
		return
	}
	ps.Ints = ps.Ints[:0]
	need := ps.Blocks() * n * ps.K
	if cap(ps.Floats) < need {
		ps.Floats = make([]float32, need)
	}
	ps.Floats = ps.Floats[:need]
}

// PartialInto computes the engine's partial scores for a batch of images
// into ps (re-sized in place, reusing capacity). The batch is cut and run as
// PredictInto's is (forParts); steady state performs zero heap allocations
// when ps capacity suffices.
func (e *Engine) PartialInto(images *tensor.Tensor, ps *PartialScores) error {
	if err := e.checkImages(images); err != nil {
		return err
	}
	n := images.Shape[0]
	e.ResizePartials(ps, n)
	e.forParts(batchJob{images: images.Data, n: n, ps: ps})
	return nil
}

// PartialChecked is PartialInto behind the serving panic barrier, mirroring
// PredictChecked.
func (e *Engine) PartialChecked(images *tensor.Tensor, ps *PartialScores) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: partial predict panicked: %v", r)
		}
	}()
	return e.PartialInto(images, ps)
}

// MergeScores add-reduces shard partials covering [0, FullD) into final
// class scores and (optionally) predictions — the reduce of the sharded
// serving tier. scores must hold N·K float64s; preds, when non-nil, N ints.
// The result is bit-identical to the unsharded engine's internal score
// accumulation and argmax for any shard count, including a single
// full-range partial.
//
// parts may arrive in any order; they must tile [0, FullD) contiguously and
// agree on N, K, FullD and kernel.
func MergeScores(preds []int, scores []float64, parts []*PartialScores) error {
	if len(parts) == 0 {
		return fmt.Errorf("engine: MergeScores with no partials")
	}
	p0 := parts[0]
	n, k, fullD := p0.N, p0.K, p0.FullD
	if p0.Scales != nil && len(p0.Scales) != k {
		return fmt.Errorf("engine: MergeScores scales length %d, want %d", len(p0.Scales), k)
	}
	for _, p := range parts {
		if p.N != n || p.K != k || p.FullD != fullD || p.Packed != p0.Packed {
			return fmt.Errorf("engine: MergeScores mismatched partials (N=%d/%d K=%d/%d FullD=%d/%d packed=%v/%v)",
				p.N, n, p.K, k, p.FullD, fullD, p.Packed, p0.Packed)
		}
		if len(p.Scales) != len(p0.Scales) {
			return fmt.Errorf("engine: MergeScores mixes scaled (%d) and unscaled (%d) partials", len(p.Scales), len(p0.Scales))
		}
		for j := range p.Scales {
			if p.Scales[j] != p0.Scales[j] {
				return fmt.Errorf("engine: MergeScores partials disagree on class %d scale", j)
			}
		}
		if p.Packed {
			if len(p.Ints) != n*k {
				return fmt.Errorf("engine: MergeScores partial [%d,%d) has %d int scores, want %d", p.Lo, p.Hi, len(p.Ints), n*k)
			}
		} else if len(p.Floats) != p.Blocks()*n*k {
			return fmt.Errorf("engine: MergeScores partial [%d,%d) has %d float scores, want %d", p.Lo, p.Hi, len(p.Floats), p.Blocks()*n*k)
		}
	}
	if len(scores) < n*k {
		return fmt.Errorf("engine: MergeScores scores length %d, want %d", len(scores), n*k)
	}
	if preds != nil && len(preds) < n {
		return fmt.Errorf("engine: MergeScores preds length %d, want %d", len(preds), n)
	}
	scores = scores[:n*k]
	for i := range scores {
		scores[i] = 0
	}
	// Walk the shards in ascending Lo order without allocating: find the
	// partial starting at the cursor, advance. S is small (≤ D/256).
	cursor := 0
	for range parts {
		var cur *PartialScores
		for _, p := range parts {
			if p.Lo == cursor {
				cur = p
				break
			}
		}
		if cur == nil {
			return fmt.Errorf("engine: MergeScores partials do not tile [0, %d): no shard starts at %d", fullD, cursor)
		}
		if cur.Packed {
			for i, v := range cur.Ints {
				scores[i] += float64(v)
			}
		} else {
			// Global block order == shard order (contiguous ascending) then
			// block index within the shard: the unsharded fold sequence.
			nk := n * k
			for b := 0; b < cur.Blocks(); b++ {
				blk := cur.Floats[b*nk : (b+1)*nk]
				for i, v := range blk {
					scores[i] += float64(v)
				}
			}
		}
		cursor = cur.Hi
	}
	if cursor != fullD {
		return fmt.Errorf("engine: MergeScores partials cover [0, %d) of [0, %d)", cursor, fullD)
	}
	if p0.Scales != nil {
		// Sub-byte kernel: dequantize the (exactly-summed) integer dots. The
		// int32 dots convert to float64 exactly, so float64(scale)·float64(dot)
		// is bit-identical to the tail's own ArgmaxScaledInto scoring.
		for i := 0; i < n; i++ {
			row := scores[i*k : (i+1)*k]
			for c := 0; c < k; c++ {
				row[c] *= float64(p0.Scales[c])
			}
		}
	}
	if preds != nil {
		hdlearn.ArgmaxInto(preds, scores, n, k)
	}
	return nil
}
