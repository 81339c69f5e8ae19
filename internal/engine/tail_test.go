package engine_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

// tailCase is one row of the serving-tail lattice. Every row serves P's sign
// words and must match the pipeline bit for bit; the names are those the rows
// have always had, so each gate's test IDs carry over:
//
//   - "prepacked": the default engine;
//   - "remat": the same engine with the pipeline's float projection matrices
//     overwritten by NaN once it has compiled, so every product must
//     rematerialize its ±1.0 strips from the engine's own sign words — an
//     engine that still read the pipeline's P after Compile fails;
//   - "folded": F̂ raised to the tiny fixture's pooled width (16·2·2 = 64),
//     where the manifold compresses nothing and folding its FC into P would
//     save MACs (F̂ > PooledF·D/(PooledF+D)); the engine must still compile
//     the manifold stage and serve P's sign words there.
type tailCase struct {
	name     string
	detached bool
	fhat     int // raise F̂ to this when nonzero
}

func tailCases() []tailCase {
	return []tailCase{
		{"prepacked", false, 0},
		{"remat", true, 0},
		{"folded", false, 64},
	}
}

// compile compiles p for the case and checks the stages it laid out. Compute
// any pipeline reference, then detach a detached case.
func (tc tailCase) compile(t *testing.T, p *core.Pipeline, opts ...engine.Option) *engine.Engine {
	t.Helper()
	e, err := engine.Compile(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, p, e)
	return e
}

// detach overwrites the pipeline's float projection matrices — P and the LSH
// operand — with NaN, so an engine compiled before it is right only if it
// never reads them.
func detach(p *core.Pipeline) {
	for _, pr := range []*hdc.Projection{p.Proj, p.LSH} {
		if pr != nil {
			for i := range pr.P.Data {
				pr.P.Data[i] = float32(math.NaN())
			}
		}
	}
}

// mut layers the case's shape onto a config mutator.
func (tc tailCase) mut(base func(*core.Config)) func(*core.Config) {
	return func(c *core.Config) {
		base(c)
		if tc.fhat > 0 {
			c.FHat = tc.fhat
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

// checkStages asserts the one stage layout every engine has: a manifold
// stage exactly when the pipeline has a manifold, and the fused sign-word
// tail last.
func checkStages(t *testing.T, p *core.Pipeline, e *engine.Engine) {
	t.Helper()
	names := e.Stages()
	if !strings.HasPrefix(names[len(names)-1], "fuse(project+") {
		t.Fatalf("tail compiled as %v, want prefix %q", names, "fuse(project+")
	}
	want := []string{"extract", "manifold"}
	if p.Manifold == nil {
		want = []string{"extract", "flatten", "lsh"}
	}
	if !slices.Equal(names[:len(names)-1], want) {
		t.Fatalf("stages %v for a pipeline with manifold %v, want %v then the tail", names, p.Manifold != nil, want)
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
// tail: every tail case × both classifier kernels × every topology, checked
// against the pipeline reference on predictions and, bit for bit, on query
// hypervectors. The same table carries the degenerate shapes: a single
// class, one ragged 256-column block (D=65), one full block plus one column
// (D=257), the same two under a 19-class memory (strip-scored and ragged
// classes side by side), the float scorer's 16-class strip boundaries
// (K = 15, 16, 17), and batches of 1 and chunk+1 samples — and, on the first case, the two zoo extractors the
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
		{name: "lsh", mut: func(c *core.Config) { c.UseManifold = false }},
		{name: "D65", mut: func(c *core.Config) { c.D = 65 }},
		{name: "D257", mut: func(c *core.Config) { c.D = 257 }},
		{name: "K1", k1: true},
		// One 16-class strip plus three ragged classes (the float scorer's
		// panel path), over a ragged block and over a full block plus a column.
		{name: "K19-D65", mut: func(c *core.Config) { c.D = 65 }, wide: 19},
		{name: "K19-D257", mut: func(c *core.Config) { c.D = 257 }, wide: 19},
		// No strip, one strip exactly, one strip and one ragged class.
		{name: "K15", wide: 15},
		{name: "K16", wide: 16},
		{name: "K17", wide: 17},
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
					if tc.fhat > 0 && p.Manifold == nil {
						t.Skip("F̂ is the manifold's width; this pipeline has none")
					}
					if sh.k1 {
						row := append([]float32(nil), p.HD.M.Row(0)...)
						p.HD = &hdlearn.Model{K: 1, D: p.Cfg.D, M: tensor.FromSlice(row, 1, p.Cfg.D)}
					}
					if sh.wide > 0 {
						widenClasses(p, sh.wide)
					}
					e := tc.compile(t, p)
					if sh.zoo != "" {
						unfused, err := engine.Compile(p, engine.WithUnfusedExtract())
						if err != nil {
							t.Fatal(err)
						}
						requireFusedExtract(t, e)
						sameOutputs(t, e, unfused, test.Images)
					}
					wantPreds, wantHVs := reference(p, test.Images)
					if tc.detached {
						detach(p)
					}
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
						hvs, err := engine.QueryHVs(e, imgs)
						if err != nil {
							t.Fatal(err)
						}
						if hvs.Shape[0] != n || hvs.Shape[1] != d {
							t.Fatalf("N=%d QueryHVs shape %v, want [%d %d]", n, hvs.Shape, n, d)
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

// TestEngineSignWordFootprint pins the projection's served bytes to its
// analytic size: on every topology and both classifier kernels the project
// row of BytesBreakdown is Pipeline.Costs' ProjectionBytes, F̂·⌈D/64⌉·8, and
// the LSH stage's its LSHBytes. ModelBytes totals the breakdown.
func TestEngineSignWordFootprint(t *testing.T) {
	for _, sh := range []struct {
		name string
		mut  func(*core.Config)
	}{
		{"manifold", func(c *core.Config) {}},
		{"lsh", func(c *core.Config) { c.UseManifold = false }},
		{"D257", func(c *core.Config) { c.D = 257 }},
	} {
		for _, packed := range []bool{false, true} {
			p, _ := buildPipeline(t, func(c *core.Config) { sh.mut(c); c.PackedInference = packed })
			e, err := engine.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			costs := p.Costs()
			rows := map[string]int64{}
			var sum int64
			for _, b := range e.BytesBreakdown() {
				rows[b.Name] = b.Bytes
				sum += b.Bytes
			}
			if sum != e.ModelBytes() || sum <= 0 {
				t.Fatalf("%s/%s: ModelBytes %d != breakdown sum %d", sh.name, kernelName(packed), e.ModelBytes(), sum)
			}
			want := int64(p.Proj.F) * int64((p.Cfg.D+63)/64) * 8
			if got := rows["project"]; got != costs.ProjectionBytes || got != want {
				t.Fatalf("%s/%s: project bytes %d, Costs().ProjectionBytes %d, F̂·⌈D/64⌉·8 = %d",
					sh.name, kernelName(packed), got, costs.ProjectionBytes, want)
			}
			if p.LSH != nil && rows["lsh"] != costs.LSHBytes {
				t.Fatalf("%s/%s: lsh bytes %d, Costs().LSHBytes %d", sh.name, kernelName(packed), rows["lsh"], costs.LSHBytes)
			}
		}
	}
}

// TestCompileRejectsNonBipolarProjection: one entry of the projection or of
// the LSH operand that is 0, −0, 0.5, NaN or +Inf makes Compile return an error wrapping ErrNotBipolar — never a
// panic, and never an engine serving sign words of a different matrix.
func TestCompileRejectsNonBipolarProjection(t *testing.T) {
	for _, sh := range []struct {
		name string
		mut  func(*core.Config)
		lsh  bool
	}{
		{"manifold", func(c *core.Config) {}, false},
		{"lsh", func(c *core.Config) { c.UseManifold = false }, true},
	} {
		for _, v := range []float32{0, float32(math.Copysign(0, -1)), 0.5, float32(math.NaN()), float32(math.Inf(1))} {
			p, _ := buildPipeline(t, sh.mut)
			m := p.Proj.P
			if sh.lsh {
				m = p.LSH.P
			}
			m.Data[len(m.Data)/2+1] = v
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s, entry %v: Compile panicked: %v", sh.name, v, r)
					}
				}()
				if e, err := engine.Compile(p); !errors.Is(err, engine.ErrNotBipolar) || e != nil {
					t.Fatalf("%s, entry %v: Compile = %v, %v; want ErrNotBipolar", sh.name, v, e, err)
				}
			}()
		}
	}
}

// zeroAllocGate compiles every tail case × kernel and requires a steady-state
// PredictInto on the first n(e) test samples to leave the heap alone.
func zeroAllocGate(t *testing.T, n func(e *engine.Engine, test *dataset.Dataset) int) {
	for _, tc := range tailCases() {
		for _, packed := range []bool{false, true} {
			t.Run(tc.name+"/"+kernelName(packed), func(t *testing.T) {
				p, test := buildPipeline(t, tc.mut(func(c *core.Config) { c.PackedInference = packed }))
				e := tc.compile(t, p)
				if tc.detached {
					detach(p)
				}
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
// Batch 1 drives the skinny-M GEMM dispatch and the sign-word expansion of
// the projection strips, so a regression that makes either allocate fails here even when
// the chunk-sized gate stays clean.
func TestEngineZeroAllocBatch1(t *testing.T) {
	zeroAllocGate(t, func(*engine.Engine, *dataset.Dataset) int { return 1 })
}

// TestArgmaxTieLowestIndex pins the one tie rule — on equal scores the
// lowest class index wins — for both scorers. The tie is exact by construction: the row of the class most
// samples choose is copied over class 0 and over the last class, so for
// those samples three classes score identically in every kernel (identical
// rows fold and pack identically) and class 0 must win; the last
// class must never be predicted at all.
func TestArgmaxTieLowestIndex(t *testing.T) {
	for _, sc := range []struct {
		name   string
		packed bool
	}{
		{"float", false},
		{"packed", true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			p, test := buildBigPipeline(t, func(c *core.Config) { c.PackedInference = sc.packed })
			k := p.HD.K

			// Duplicate the class a that the same scorer chooses most often
			// over classes 0 and k−1; every other class row, hence every
			// other score, is untouched.
			before, err := engine.Compile(p)
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
			e, err := engine.Compile(p)
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
