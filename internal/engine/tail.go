package engine

import (
	"fmt"
	"time"

	"nshd/internal/core"
	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

// This file is the engine's serving tail: the Compile-time collapse of
// random projection → sign → class scoring into one blocked GEMM whose
// 256-column output blocks are consumed — packed or scored — the moment they
// are computed. Only one [N, 256] projection block is ever live, so the
// per-chunk arena holds no D-wide slab. The ±1 projection is held as sign
// words, one bit per entry, and expanded into ±1.0 strips inside the panel
// step (tensor.SignPanels).
//
// A block leaves the GEMM into one of two data flows:
//
//   - sign words → int32 dots: the block's sign bits are packed into the
//     query's words and hdlearn.PackedModel's popcount turns each finished
//     row into one integer dot per class;
//   - signed float block → per-block float32 scores: the block is signed in
//     place and hdlearn.FoldedScorer scores it against the same columns of
//     the cosine-folded class matrix; the per-block scores fold into float64
//     in block order.
//
// Numerical contract, stated against the pipeline reference
// (core.Pipeline.ExtractFeatures → Symbolize → classify, which shares no
// kernel with this file) and proven by the engine tests: query hypervectors
// are BIT-EXACT. The sign words expand to exactly the ±1.0 entries of P,
// tensor.MatMulPanelsBlock reproduces the serial GEMM's per-element
// accumulation order, sign(·) commutes with blocking, and PackSignsInto over
// a 256-aligned block writes exactly the words the full-row pack writes.
// Predictions are identical except on an exact mathematical cosine tie (see
// DESIGN.md, "One tie rule").

// StageBytes is one component of the engine's resident serving weights.
type StageBytes struct {
	Name  string
	Bytes int64
}

// tail terminates the compiled chain: feature-stage output to class
// predictions, scratch from the worker arena.
type tail struct {
	d, k, inF int
	// panels is the projection operand in GEMM panel form: P's sign words.
	panels *tensor.ProjPanels
	// Exactly one data flow is compiled: words (Cfg.PackedInference) or
	// float.
	words *hdlearn.PackedModel
	float *hdlearn.FoldedScorer
	name  string
	bytes []StageBytes
}

// buildTail assembles the tail for one compiled engine: the projection
// operand as P's sign words, then the classifier.
func buildTail(p *core.Pipeline) *tail {
	t := &tail{d: p.Cfg.D, k: p.HD.K, inF: p.Proj.F, panels: tensor.SignPanels(p.Proj.P)}
	clsName, clsBytes := "classify-float", int64(0)
	if p.Cfg.PackedInference {
		t.words = hdlearn.PackModel(p.HD)
		clsName, clsBytes = "classify-packed", t.words.MemoryBytes()
	} else {
		t.float = hdlearn.NewFoldedScorer(p.HD)
		clsBytes = t.float.ModelBytes()
	}
	t.name = "fuse(project+" + clsName + ")"
	t.bytes = []StageBytes{{"project", t.panels.MemoryBytes()}, {clsName, clsBytes}}
	return t
}

// forBlocks is the tail's one block loop: [N, F̂] features → one blocked GEMM
// over the D columns, 256 at a time, consume seeing each block as a compact
// [n, w] tile of pre-sign values for columns [c0, c0+w). No [N, D]
// intermediate ever exists. consume does not escape, so the closures the
// callers pass stay on the stack. A non-nil project (TimeStages only)
// receives the seconds spent outside consume: the GEMM.
func (t *tail) forBlocks(x *tensor.Tensor, ar *tensor.Arena, project *float64, consume func(blk []float32, n, w, c0 int)) {
	if x.Rank() != 2 || x.Shape[1] != t.inF {
		panic(fmt.Sprintf("engine: tail got %v, want [N %d]", x.Shape, t.inF))
	}
	if project != nil {
		t0, inner, consuming := time.Now(), consume, time.Duration(0)
		consume = func(blk []float32, n, w, c0 int) {
			t1 := time.Now()
			inner(blk, n, w, c0)
			consuming += time.Since(t1)
		}
		defer func() { *project += (time.Since(t0) - consuming).Seconds() }()
	}
	n := x.Shape[0]
	bc := tensor.PanelBlockCols()
	scratch := ar.Floats(tensor.PanelScratch())
	blk := ar.Floats(n * bc)
	for c0 := 0; c0 < t.d; c0 += bc {
		w := tensor.MatMulPanelsBlock(blk, x, t.panels, c0, scratch)
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
		hdlearn.ArgmaxInto(preds, dots, n, t.k)
	} else {
		acc := ar.Float64s(n * t.k)
		clear(acc)
		bs := ar.Floats(n * t.k)
		t.forBlocks(x, ar, project, func(blk []float32, n, w, c0 int) {
			tensor.SignInPlace(blk)
			t.float.BlockScores(bs, blk, n, w, c0)
			tensor.AccumulateFloat64(acc, bs)
		})
		hdlearn.ArgmaxInto(preds, acc, n, t.k)
	}
	ar.Release(m)
}
