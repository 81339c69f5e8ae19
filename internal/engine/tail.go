package engine

import (
	"fmt"
	"time"

	"nshd/internal/core"
	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/quant"
	"nshd/internal/tensor"
)

// This file is the engine's serving tail: the Compile-time collapse of
// random projection → sign → class scoring (and, when the planner folds it,
// the manifold FC in front) into one blocked GEMM whose 256-column output
// blocks are consumed — packed or scored — the moment they are computed.
// Only one [N, 256] projection block is ever live, so the per-chunk arena
// holds no D-wide slab, and the projection's panel packing happens at
// Compile time (or, under rematerialization, as a seeded regeneration inside
// the panel step — see tensor.BipolarGen).
//
// A block leaves the GEMM into one of two data flows:
//
//   - sign words → int32 dots: the block's sign bits are packed into the
//     query's words and a wordScorer (1-bit popcount, int4, ternary) turns
//     each finished row into one integer dot per class;
//   - signed float block → per-block float32 scores: the block is signed in
//     place and hdlearn.FoldedScorer scores it against the same columns of
//     the cosine-folded class matrix; the per-block scores fold into float64
//     in block order.
//
// Numerical contract, stated against the pipeline reference
// (core.Pipeline.ExtractFeatures → Symbolize → classify, which shares no
// kernel with this file) and proven by the engine tests:
//
//   - Prepacked and rematerialized tails: query hypervectors are BIT-EXACT.
//     tensor.MatMulPanelsBlock reproduces the serial GEMM's per-element
//     accumulation order, sign(·) commutes with blocking, and
//     PackSignsInto over a 256-aligned block writes exactly the words the
//     full-row pack writes. Predictions are identical except on an exact
//     mathematical cosine tie (see DESIGN.md, "One tie rule").
//   - Folded (x(WᵀP)+bP instead of ((xWᵀ+b)P)): ARGMAX-IDENTICAL only. The
//     re-associated product differs in final ulps, so pre-sign values near
//     zero may flip; predictions are the contract, query hypervectors are
//     not. Folding is therefore a cost-gated planner decision
//     (foldProfitable), never taken when it loses.

// foldProfitable is the planner's cost gate for folding the manifold FC into
// the projection: per sample the folded tail spends PooledF·D MACs where the
// unfolded chain spends PooledF·F̂ (FC) + F̂·D (projection). The paper's
// shapes (F̂ ≪ PooledF, D) make the manifold a compression stage and the fold
// a pessimization, so it only fires when the manifold widens features
// (1/F̂ < 1/PooledF + 1/D).
func foldProfitable(pooledF, fhat, d int) bool {
	return int64(pooledF)*int64(d) < int64(pooledF)*int64(fhat)+int64(fhat)*int64(d)
}

// StageBytes is one component of the engine's resident serving weights.
type StageBytes struct {
	Name  string
	Bytes int64
}

// wordScorer is the classifier of the sign-word data flow, satisfied by
// hdlearn.PackedModel (1-bit popcount) and hdlearn.SubByteScorer (int4,
// ternary): one sign-packed query row in, one int32 dot per class out.
type wordScorer interface {
	Name() string
	DotsInto(dots []int32, q []uint64)
	// Scales returns the per-class dequantization scales the dots must be
	// multiplied by before classes are compared, nil when the integer dots
	// compare directly.
	Scales() []float32
	MemoryBytes() int64
}

// tail terminates the compiled chain: feature-stage output to class
// predictions or signed query hypervectors, scratch from the worker arena.
type tail struct {
	d, k, inF int
	// Folded head (manifold fold only): the pool that precedes the folded
	// GEMM — max-pool is nonlinear, so the fold stops there — and, for a
	// factorized manifold, the SVD down-projection V ([rank, PooledF]) that
	// maps pooled features to the rank space G = up^T·P ([rank, D]) consumes.
	pool *nn.MaxPool2D
	down *nn.Linear
	// panels is the projection operand in GEMM panel form: prepacked strips
	// of P (or of the folded G), or a seeded generator that rematerializes
	// them inside the kernel.
	panels *tensor.ProjPanels
	// bias is the folded FC bias row c = b·P; nil exactly when not folding.
	bias []float32
	// Exactly one data flow is compiled: words (Cfg.PackedInference or a
	// compression plan's sub-byte scorer) or float.
	words wordScorer
	float *hdlearn.FoldedScorer
	name  string
	bytes []StageBytes
}

// buildTail assembles the tail for one compiled engine: the projection
// operand as prepacked panels, a remat generator over the seed, or the folded
// matrix G = Wᵀ·P with its bias; then the classifier. fold is Compile's
// planner decision.
func buildTail(p *core.Pipeline, o *compileOptions, fold bool) (*tail, error) {
	t := &tail{d: p.Cfg.D, k: p.HD.K, inF: p.Proj.F}
	projName := "project"
	switch {
	case fold:
		g, c, err := p.Manifold.FoldProjection(p.Proj.P)
		if err != nil {
			return nil, fmt.Errorf("engine: folding tail: %w", err)
		}
		t.pool = p.Manifold.Pool()
		t.bias = c
		t.inF = p.Manifold.PooledF
		if t.down = p.Manifold.Down(); t.down != nil {
			// Factorized manifold: FoldProjection folded only the up factor
			// (fc.Weight.W is [F̂, rank]), so G is [rank, D] and the head runs
			// the down-projection V to feed the rank-wide GEMM.
			t.inF = t.down.Out
		}
		t.panels = tensor.PrepackPanels(g)
		projName = "manifold*project"
	case o.remat:
		if !p.Proj.Seeded {
			return nil, fmt.Errorf("engine: WithRemat requires a seeded projection")
		}
		t.panels = tensor.RematPanels(p.Proj.Gen())
		projName = "project@seed"
	default:
		t.panels = tensor.PrepackPanels(p.Proj.P)
	}
	projBytes := t.panels.MemoryBytes() + int64(len(t.bias))*4
	if t.down != nil {
		projBytes += paramBytes(t.down.Params())
	}

	clsName, clsBytes := "classify-float", int64(0)
	switch {
	case o.plan != nil && o.plan.prec == PrecisionInt4:
		t.words = hdlearn.NewInt4Scorer(p.HD, quant.QuantizeInt4Row)
	case o.plan != nil && o.plan.prec == PrecisionTernary:
		t.words = hdlearn.NewTernaryScorer(p.HD, quant.QuantizeTernaryRow)
	case p.Cfg.PackedInference:
		t.words = hdlearn.PackModel(p.HD)
	default:
		t.float = hdlearn.NewFoldedScorer(p.HD)
		clsBytes = t.float.ModelBytes()
	}
	if t.words != nil {
		clsName, clsBytes = "classify-"+t.words.Name(), t.words.MemoryBytes()
	}
	t.name = "fuse(" + projName + "+" + clsName + ")"
	t.bytes = []StageBytes{{projName, projBytes}, {clsName, clsBytes}}
	return t, nil
}

// head runs the folded tail's pool → flatten → down prefix (identity when
// not folding) and validates the GEMM input width.
func (t *tail) head(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	if t.bias != nil {
		if t.pool != nil {
			x = t.pool.ForwardInfer(x, ar)
		}
		if x.Rank() != 2 {
			n := x.Shape[0]
			x = ar.Wrap(x.Data, n, x.Len()/n)
		}
		if t.down != nil {
			x = t.down.ForwardInfer(x, ar)
		}
	}
	if x.Rank() != 2 || x.Shape[1] != t.inF {
		panic(fmt.Sprintf("engine: tail got %v, want [N %d]", x.Shape, t.inF))
	}
	return x
}

// forBlocks is the tail's one block loop: features → head → one blocked GEMM
// over the D columns, 256 at a time, each block getting the folded
// bias row (when folding) before consume sees it as a compact [n, w] tile of
// pre-sign values for columns [c0, c0+w). Neither the [N, F̂] manifold
// activation (folded mode) nor any [N, D] intermediate ever exists. consume
// does not escape, so the closures the callers pass stay on the stack.
// A non-nil project (TimeStages only) receives the seconds spent outside
// consume: head, GEMM and bias.
func (t *tail) forBlocks(x *tensor.Tensor, ar *tensor.Arena, project *float64, consume func(blk []float32, n, w, c0 int)) {
	if project != nil {
		t0, inner, consuming := time.Now(), consume, time.Duration(0)
		consume = func(blk []float32, n, w, c0 int) {
			t1 := time.Now()
			inner(blk, n, w, c0)
			consuming += time.Since(t1)
		}
		defer func() { *project += (time.Since(t0) - consuming).Seconds() }()
	}
	v := t.head(x, ar)
	n := v.Shape[0]
	bc := tensor.PanelBlockCols()
	scratch := ar.Floats(tensor.PanelScratch())
	blk := ar.Floats(n * bc)
	for c0 := 0; c0 < t.d; c0 += bc {
		w := tensor.MatMulPanelsBlock(blk, v, t.panels, c0, scratch)
		if t.bias != nil {
			b := t.bias[c0 : c0+w]
			for i := 0; i < n; i++ {
				row := blk[i*w : (i+1)*w]
				for j := range row {
					row[j] += b[j]
				}
			}
		}
		consume(blk[:n*w], n, w, c0)
	}
}

// wordDots runs the sign-word data flow for one chunk: the signed query
// hypervectors are packed block by block into n arena-owned rows of ⌈d/64⌉
// words, then scored into dots ([n, k]). Block packing writes the same words
// as packing the full row: c0 is 256-aligned, so blocks tile the row's words
// exactly, and the pack's sign test (v < 0) matches sign(0) = +1.
func (t *tail) wordDots(x *tensor.Tensor, dots []int32, ar *tensor.Arena, project *float64) {
	wpr := (t.d + 63) / 64
	q := ar.Words(x.Shape[0] * wpr)
	t.forBlocks(x, ar, project, func(blk []float32, n, w, c0 int) {
		wb, ww := c0/64, (w+63)/64
		for i := 0; i < n; i++ {
			tensor.PackSignsInto(q[i*wpr+wb:i*wpr+wb+ww], blk[i*w:(i+1)*w])
		}
	})
	for i := 0; i < x.Shape[0]; i++ {
		t.words.DotsInto(dots[i*t.k:(i+1)*t.k], q[i*wpr:(i+1)*wpr])
	}
}

// run classifies one chunk: int32 dots, or per-block float32 scores folded
// into float64 in block order — the order the engine-vs-PredictDirect gate
// and every trained model's labels rest on. project is forBlocks' (nil when
// serving).
func (t *tail) run(x *tensor.Tensor, preds []int, ar *tensor.Arena, project *float64) {
	m := ar.Mark()
	n := x.Shape[0]
	if t.words != nil {
		dots := ar.Int32s(n * t.k)
		t.wordDots(x, dots, ar, project)
		hdlearn.ArgmaxScaledInto(preds, dots, t.words.Scales(), n, t.k)
	} else {
		acc := ar.Float64s(n * t.k)
		clear(acc)
		bs := ar.Floats(n * t.k)
		t.forBlocks(x, ar, project, func(blk []float32, n, w, c0 int) {
			tensor.SignInPlace(blk)
			t.float.BlockScores(bs, blk, n, w, c0)
			for i, v := range bs {
				acc[i] += float64(v)
			}
		})
		hdlearn.ArgmaxInto(preds, acc, n, t.k)
	}
	ar.Release(m)
}

// runHVs writes the signed query hypervectors ([n rows of d]) straight into
// caller memory, one projection block at a time.
func (t *tail) runHVs(x *tensor.Tensor, dst []float32, ar *tensor.Arena) {
	m := ar.Mark()
	t.forBlocks(x, ar, nil, func(blk []float32, n, w, c0 int) {
		tensor.SignInPlace(blk)
		for i := 0; i < n; i++ {
			copy(dst[i*t.d+c0:i*t.d+c0+w], blk[i*w:(i+1)*w])
		}
	})
	ar.Release(m)
}
