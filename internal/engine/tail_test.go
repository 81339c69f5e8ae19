package engine_test

import (
	"strings"
	"testing"

	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

// tinyPooledF is the tiny fixture's pooled feature width (tinyZoo cut 1:
// [16, 4, 4] features, 2×2-pooled by the manifold). foldingFHat derives the
// fold threshold from it; newFoldedFixture asserts it still holds.
const tinyPooledF = 64

// foldingFHat is the smallest F̂ at which the planner folds the manifold FC
// into the projection on the tiny fixture: the fold pays exactly when
// F̂ > PooledF·D/(PooledF+D) (see foldProfitable).
func foldingFHat(d int) int { return tinyPooledF*d/(tinyPooledF+d) + 1 }

// tailCase is one row of the serving-tail lattice: the two projection
// backings, plus the fold the planner takes from the pipeline's shape alone.
type tailCase struct {
	name string
	opts []engine.Option
	fold bool
}

func tailCases() []tailCase {
	return []tailCase{
		{"prepacked", nil, false},
		{"remat", []engine.Option{engine.WithRemat()}, false},
		{"folded", nil, true},
	}
}

// mut layers the case's shape onto a config mutator: a folded case raises F̂
// to the smallest value the planner folds at for the (already mutated) D.
func (tc tailCase) mut(base func(*core.Config)) func(*core.Config) {
	return func(c *core.Config) {
		base(c)
		if tc.fold {
			c.FHat = foldingFHat(c.D)
		}
	}
}

// kernelName labels a subtest by classifier kernel.
func kernelName(packed bool) string {
	if packed {
		return "packed"
	}
	return "float"
}

// checkStages asserts the engine compiled the tail the case names, so a
// fixture change that silently stops folding (or starts) fails loudly.
func (tc tailCase) checkStages(t *testing.T, e *engine.Engine) {
	t.Helper()
	names := e.Stages()
	tail := names[len(names)-1]
	want := "fuse(project+"
	switch {
	case tc.fold:
		want = "fuse(manifold*project+"
	case len(tc.opts) > 0:
		want = "fuse(project@seed+"
	}
	if !strings.HasPrefix(tail, want) {
		t.Fatalf("%s tail compiled as %v, want prefix %q", tc.name, names, want)
	}
	for _, n := range names {
		if tc.fold && n == "manifold" {
			t.Fatalf("folded engine still compiles a manifold stage: %v", names)
		}
	}
}

// reference computes the pipeline's own answer for a batch — the training
// tensors through ExtractFeatures → Symbolize → classify, which shares no
// kernel with the engine: its predictions and signed query hypervectors.
func reference(p *core.Pipeline, images *tensor.Tensor) ([]int, *tensor.Tensor) {
	_, _, signed := p.Symbolize(p.ExtractFeatures(images), false)
	return p.PredictDirect(images), signed
}

// imagesAt views samples [lo, hi) of a batch.
func imagesAt(images *tensor.Tensor, lo, hi int) *tensor.Tensor {
	sample := images.Len() / images.Shape[0]
	return tensor.FromSlice(images.Data[lo*sample:hi*sample], hi-lo, images.Shape[1], images.Shape[2], images.Shape[3])
}

// firstImages views the first n samples of a batch.
func firstImages(images *tensor.Tensor, n int) *tensor.Tensor { return imagesAt(images, 0, n) }

// TestEngineTailMatchesPipeline is the one differential test of the serving
// tail: every projection backing and the planner's fold × both classifier
// kernels × every topology, checked against the pipeline reference on
// predictions AND query hypervectors — bit-exact for the prepacked and
// rematerialized tails, argmax-identical for the fold (its re-associated
// GEMM may flip a pre-sign value within an ulp of zero). The same table
// carries the degenerate shapes: a single class, one ragged 256-column block
// (D=65), one full block plus one column (D=257), the same two under a
// 19-class memory (strip-scored and ragged classes side by side), and batches
// of 1 and chunk+1 samples — and, on the prepacked tail, the two zoo extractors the
// tiny fixture has no layer of: mobilenetv2 cut 4 (BatchNorm+ReLU6, 1×1
// expansion, depthwise 3×3 at stride 1 and 2, an identity-skip residual: the
// vector kernels) and effnetb0 cut 3 (5×5 stride-2 depthwise, SE, SiLU: the
// paths that stay on their Go twins), each also fused against unfused.
func TestEngineTailMatchesPipeline(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*core.Config)
		k1   bool   // collapse the class memory to a single class
		wide int    // widen the class memory to this many classes
		zoo  string // extract with this zoo model cut at layer cut, not the tiny fixture
		cut  int
	}{
		{name: "manifold"},
		{name: "lsh", mut: func(c *core.Config) { c.UseManifold = false; c.LSHDim = 20 }},
		{name: "direct", mut: func(c *core.Config) { c.UseManifold = false; c.LSHDim = 0 }},
		{name: "D65", mut: func(c *core.Config) { c.D = 65 }},
		{name: "D257", mut: func(c *core.Config) { c.D = 257 }},
		{name: "K1", k1: true},
		// One 16-class strip plus three ragged classes (the float scorer's
		// panel path), over a ragged block and over a full block plus a column.
		{name: "K19-D65", mut: func(c *core.Config) { c.D = 65 }, wide: 19},
		{name: "K19-D257", mut: func(c *core.Config) { c.D = 257 }, wide: 19},
		{name: "mobilenetv2-cut4", zoo: "mobilenetv2", cut: 4},
		{name: "effnetb0-cut3", zoo: "effnetb0", cut: 3},
	}
	for _, sh := range shapes {
		for _, tc := range tailCases() {
			if sh.zoo != "" && tc.name != "prepacked" {
				continue
			}
			for _, packed := range []bool{false, true} {
				t.Run(sh.name+"/"+tc.name+"/"+kernelName(packed), func(t *testing.T) {
					mut := tc.mut(func(c *core.Config) {
						if sh.mut != nil {
							sh.mut(c)
						}
						c.PackedInference = packed
					})
					m, cut := tinyZoo(62, 4), 1
					if sh.zoo != "" {
						fuseSmall(t)
						m, cut = zooModel(t, sh.zoo), sh.cut
					}
					p, test := buildPipelineOn(t, m, cut, mut)
					if tc.fold && p.Manifold == nil {
						t.Skip("no manifold to fold")
					}
					if sh.k1 {
						row := append([]float32(nil), p.HD.M.Row(0)...)
						p.HD = &hdlearn.Model{K: 1, D: p.Cfg.D, M: tensor.FromSlice(row, 1, p.Cfg.D)}
					}
					if sh.wide > 0 {
						widenClasses(p, sh.wide)
					}
					e, err := engine.Compile(p, tc.opts...)
					if err != nil {
						t.Fatal(err)
					}
					tc.checkStages(t, e)
					if sh.zoo != "" {
						unfused, err := engine.Compile(p, engine.WithUnfusedExtract())
						if err != nil {
							t.Fatal(err)
						}
						requireFusedExtract(t, e)
						sameOutputs(t, e, unfused, test.Images)
					}
					wantPreds, wantHVs := reference(p, test.Images)
					d := p.Cfg.D

					for _, n := range []int{1, e.ChunkSize() + 1, test.Len()} {
						imgs := firstImages(test.Images, n)
						got, err := e.Predict(imgs)
						if err != nil {
							t.Fatal(err)
						}
						for i := range got {
							if got[i] != wantPreds[i] {
								t.Fatalf("N=%d sample %d: engine=%d pipeline=%d", n, i, got[i], wantPreds[i])
							}
						}
						hvs, err := e.QueryHVs(imgs)
						if err != nil {
							t.Fatal(err)
						}
						if hvs.Shape[0] != n || hvs.Shape[1] != d {
							t.Fatalf("N=%d QueryHVs shape %v, want [%d %d]", n, hvs.Shape, n, d)
						}
						if tc.fold {
							// Not bit-pinned; what IS pinned is that the
							// engine classifies the hypervectors it reports.
							var self []int
							if packed {
								self = p.HD.Packed().PredictBatch(hvs)
							} else {
								self = p.HD.PredictBatch(hvs)
							}
							for i := range got {
								if self[i] != got[i] {
									t.Fatalf("N=%d sample %d: folded Predict=%d but its QueryHVs classify as %d", n, i, got[i], self[i])
								}
							}
							continue
						}
						for i, v := range hvs.Data {
							if v != wantHVs.Data[i] {
								t.Fatalf("N=%d: query hypervector element %d = %g, pipeline %g", n, i, v, wantHVs.Data[i])
							}
						}
					}
					if !sh.k1 {
						// Agreement is vacuous on a one-label batch.
						seen := map[int]bool{}
						for _, pr := range wantPreds {
							seen[pr] = true
						}
						if len(seen) < 2 {
							t.Fatal("degenerate test model: all predictions identical")
						}
					}
				})
			}
		}
	}
}

// TestEngineTailPlanning pins the planner's fold decision at its boundary
// and its exclusion: the fold fires at the smallest F̂ the cost inequality
// admits and not one below, and a rematerialized tail (the folded matrix is
// dense, not seed-defined) never folds, whatever the shape.
func TestEngineTailPlanning(t *testing.T) {
	folds := func(e *engine.Engine) bool {
		names := e.Stages()
		return strings.Contains(names[len(names)-1], "manifold*project")
	}
	for _, c := range []struct {
		name string
		fhat int
		opts []engine.Option
		want bool
	}{
		{"at-threshold", foldingFHat(70), nil, true},
		{"below-threshold", foldingFHat(70) - 1, nil, false},
		{"remat", foldingFHat(70), []engine.Option{engine.WithRemat()}, false},
	} {
		p, _ := buildPipeline(t, func(cfg *core.Config) { cfg.FHat = c.fhat })
		if p.Manifold.PooledF != tinyPooledF {
			t.Fatalf("tiny fixture PooledF = %d, tests assume %d", p.Manifold.PooledF, tinyPooledF)
		}
		e, err := engine.Compile(p, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := folds(e); got != c.want {
			t.Fatalf("%s (F̂=%d): folded=%v, want %v; stages %v", c.name, c.fhat, got, c.want, e.Stages())
		}
	}

	// An unseeded projection (hand-built pipelines, legacy snapshots) cannot
	// rematerialize, and still compiles prepacked.
	p, _ := buildPipeline(t, func(c *core.Config) {})
	p.Proj = hdc.NewProjection(tensor.NewRNG(1), p.Proj.F, p.Proj.D)
	if _, err := engine.Compile(p, engine.WithRemat()); err == nil {
		t.Fatal("remat on an unseeded projection must fail Compile")
	}
	if e, err := engine.Compile(p); err != nil || e == nil {
		t.Fatalf("unseeded pipeline must still compile: %v", err)
	}
}

// TestEngineRematFootprint: rematerializing the projection collapses the
// encoder's serving bytes to the 8-byte seed (the prepacked operand is
// O(F̂·D)), and ModelBytes totals its own breakdown in both.
func TestEngineRematFootprint(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) {})
	prepacked, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	remat, err := engine.Compile(p, engine.WithRemat())
	if err != nil {
		t.Fatal(err)
	}
	stageBytes := func(e *engine.Engine, name string) int64 {
		for _, b := range e.BytesBreakdown() {
			if b.Name == name {
				return b.Bytes
			}
		}
		return -1
	}
	if got := stageBytes(remat, "project@seed"); got != 8 {
		t.Fatalf("remat projection bytes = %d, want 8 (the seed)", got)
	}
	if got, floor := stageBytes(prepacked, "project"), int64(p.Proj.F)*int64(p.Proj.D)*4; got < floor {
		t.Fatalf("prepacked projection bytes = %d, want >= %d", got, floor)
	}
	for _, e := range []*engine.Engine{prepacked, remat} {
		var sum int64
		for _, b := range e.BytesBreakdown() {
			sum += b.Bytes
		}
		if sum != e.ModelBytes() || sum <= 0 {
			t.Fatalf("ModelBytes %d != breakdown sum %d", e.ModelBytes(), sum)
		}
	}
	if remat.ModelBytes() >= prepacked.ModelBytes() {
		t.Fatalf("remat footprint %d not below prepacked %d", remat.ModelBytes(), prepacked.ModelBytes())
	}
}

// zeroAllocGate compiles every tail case × kernel and requires a steady-state
// PredictInto on the first n(e) test samples to leave the heap alone.
func zeroAllocGate(t *testing.T, n func(e *engine.Engine, test *dataset.Dataset) int) {
	for _, tc := range tailCases() {
		for _, packed := range []bool{false, true} {
			t.Run(tc.name+"/"+kernelName(packed), func(t *testing.T) {
				p, test := buildPipeline(t, tc.mut(func(c *core.Config) { c.PackedInference = packed }))
				e, err := engine.Compile(p, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				tc.checkStages(t, e)
				requireZeroAlloc(t, e, firstImages(test.Images, n(e, test)))
			})
		}
	}
}

// requireZeroAlloc warms the engine on imgs once, then fails if a further
// PredictInto touches the heap.
func requireZeroAlloc(t *testing.T, e *engine.Engine, imgs *tensor.Tensor) {
	t.Helper()
	preds := make([]int, imgs.Shape[0])
	if err := e.PredictInto(imgs, preds); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := e.PredictInto(imgs, preds); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("PredictInto on %d samples allocated %.1f times per run in steady state", imgs.Shape[0], a)
	}
}

// TestEngineZeroAlloc is the acceptance gate: a chunk-sized batch through
// PredictInto must not touch the heap in steady state, for every tail case
// and both classifier kernels. (The TestEngineZeroAlloc name prefix is what
// `make alloc` selects.)
func TestEngineZeroAlloc(t *testing.T) {
	zeroAllocGate(t, func(e *engine.Engine, test *dataset.Dataset) int {
		return min(e.ChunkSize(), test.Len())
	})
}

// TestEngineZeroAllocMobileNet puts the depthwise / BatchNorm+ReLU6 /
// residual extractor under the same gate, at chunk size and batch 1: the
// interior row kernel, the edge columns beside it and the copy-free identity
// skip must all stay off the heap. Cut 1 is the 3→8 stem alone, the one zoo
// conv small enough to have materialized Im2Col until wide stride-1 convs
// began reading a padded window from arena scratch.
func TestEngineZeroAllocMobileNet(t *testing.T) {
	for _, cut := range []int{4, 1} {
		for _, packed := range []bool{false, true} {
			p, test := buildPipelineOn(t, zooModel(t, "mobilenetv2"), cut, func(c *core.Config) { c.PackedInference = packed })
			e, err := engine.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{min(e.ChunkSize(), test.Len()), 1} {
				requireZeroAlloc(t, e, firstImages(test.Images, n))
			}
		}
	}
}

// TestEngineZeroAllocWideClassMemory: the float scorer's panel path (K = 100:
// six 16-class strips and four ragged classes, two 256-column blocks) stays
// off the heap at chunk size and at batch 1.
func TestEngineZeroAllocWideClassMemory(t *testing.T) {
	p, test := buildPipeline(t, func(c *core.Config) { c.D = 300; c.PackedInference = false })
	widenClasses(p, 100)
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{min(e.ChunkSize(), test.Len()), 1} {
		requireZeroAlloc(t, e, firstImages(test.Images, n))
	}
}

// TestEngineZeroAllocBatch1 is the same gate at the latency-critical shape.
// Batch 1 drives the skinny-M GEMM dispatch and the prepacked projection
// strips, so a regression that makes either allocate fails here even when
// the chunk-sized gate stays clean.
func TestEngineZeroAllocBatch1(t *testing.T) {
	zeroAllocGate(t, func(*engine.Engine, *dataset.Dataset) int { return 1 })
}

// TestArgmaxTieLowestIndex pins the one tie rule — on equal scores the
// lowest class index wins — for every scorer. The tie is exact by construction: the row of the class most
// samples choose is copied over class 0 and over the last class, so for
// those samples three classes score identically in every kernel (identical
// rows fold, pack and quantize identically) and class 0 must win; the last
// class must never be predicted at all.
func TestArgmaxTieLowestIndex(t *testing.T) {
	for _, sc := range []struct {
		name   string
		packed bool
		prec   engine.ScorerPrecision
	}{
		{"float", false, engine.PrecisionKeep},
		{"packed", true, engine.PrecisionKeep},
		{"int4", false, engine.PrecisionInt4},
		{"ternary", false, engine.PrecisionTernary},
	} {
		t.Run(sc.name, func(t *testing.T) {
			p, test := buildBigPipeline(t, func(c *core.Config) { c.PackedInference = sc.packed })
			k, d := p.HD.K, p.Cfg.D

			var opts []engine.Option
			if sc.prec != engine.PrecisionKeep {
				opts = append(opts, engine.WithCompression(engine.NewCompressPlan(d, allBlocks(d), sc.prec, 0)))
			}
			// Duplicate the class a that the same scorer chooses most often
			// over classes 0 and k−1; every other class row, hence every
			// other score, is untouched.
			before, err := engine.Compile(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := before.Predict(test.Images)
			if err != nil {
				t.Fatal(err)
			}
			votes := make([]int, k)
			for _, c := range orig {
				votes[c]++
			}
			a := 0
			for c := range votes {
				if votes[c] > votes[a] {
					a = c
				}
			}
			copy(p.HD.M.Row(0), p.HD.M.Row(a))
			copy(p.HD.M.Row(k-1), p.HD.M.Row(a))
			p.HD.Invalidate()
			e, err := engine.Compile(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			preds, err := e.Predict(test.Images)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range preds {
				if c == k-1 {
					t.Fatalf("sample %d: predicted class %d, a duplicate of class 0", i, c)
				}
				if orig[i] == a && c != 0 {
					t.Fatalf("sample %d: classes 0, %d and %d tie; predicted %d, want 0", i, a, k-1, c)
				}
			}
		})
	}
}
