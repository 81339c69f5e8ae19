package engine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// buildBigPipeline is buildPipeline at a dimension wide enough for block
// pruning to be meaningful: D = 1000 spans four 256-column panel blocks with
// a ragged 232-column tail, so every pruning test also exercises the
// tail-word masking of the packed and sub-byte kernels.
func buildBigPipeline(t *testing.T, mut func(*core.Config)) (*core.Pipeline, *dataset.Dataset) {
	t.Helper()
	cfgD := dataset.SynthConfig{Classes: 5, Train: 60, Test: 44, Size: 16, Noise: 0.2, Seed: 63}
	train, test := dataset.SynthCIFAR(cfgD)
	cfg := core.DefaultConfig(1, 5)
	cfg.D = 1000
	cfg.FHat = 20
	cfg.Seed = 9
	cfg.BatchSize = 8
	mut(&cfg)
	p, err := core.New(tinyZoo(64, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	return p, test
}

func allBlocks(d int) []int {
	bc := tensor.PanelBlockCols()
	nb := (d + bc - 1) / bc
	keep := make([]int, nb)
	for i := range keep {
		keep[i] = i
	}
	return keep
}

// TestCompressIdentityBitExact: a keep-everything plan at the source
// precision must compile to the exact source engine — identical predictions
// AND query hypervectors — for every tail case and both kernels.
func TestCompressIdentityBitExact(t *testing.T) {
	plan := engine.NewCompressPlan(1000, allBlocks(1000), engine.PrecisionKeep, 0)
	for _, kernel := range []string{"float", "packed"} {
		for _, m := range tailCases() {
			p, test := buildBigPipeline(t, m.mut(func(c *core.Config) { c.PackedInference = kernel == "packed" }))
			t.Run(m.name+"-"+kernel, func(t *testing.T) {
				src, err := engine.Compile(p, m.opts...)
				if err != nil {
					t.Fatal(err)
				}
				m.checkStages(t, src)
				cmp, err := engine.Compile(p, append(append([]engine.Option(nil), m.opts...), engine.WithCompression(plan))...)
				if err != nil {
					t.Fatal(err)
				}
				if cmp.Plan() != nil {
					t.Fatal("identity plan should be dropped at compile")
				}
				if cmp.ModelVersion() != src.ModelVersion() {
					t.Fatal("identity compression changed the model version")
				}
				want, err := src.Predict(test.Images)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cmp.Predict(test.Images)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("sample %d: identity-compressed pred %d, source %d", i, got[i], want[i])
					}
				}
				wantHV, err := src.QueryHVs(test.Images)
				if err != nil {
					t.Fatal(err)
				}
				gotHV, err := cmp.QueryHVs(test.Images)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantHV.Data {
					if gotHV.Data[i] != wantHV.Data[i] {
						t.Fatal("identity-compressed query hypervectors differ from source")
					}
				}
			})
		}
	}
}

// TestCompressedPredictConsistent: a pruned sub-byte engine must (a) report
// the pruned dimension, (b) mostly agree with the source ranking.
func TestCompressedPredictConsistent(t *testing.T) {
	for _, prec := range []engine.ScorerPrecision{engine.PrecisionInt4, engine.PrecisionTernary, engine.PrecisionKeep} {
		t.Run(prec.String(), func(t *testing.T) {
			p, test := buildBigPipeline(t, func(c *core.Config) {})
			src, err := engine.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			plan := engine.NewCompressPlan(1000, []int{0, 1, 3}, prec, 0)
			e, err := engine.Compile(p, engine.WithCompression(plan))
			if err != nil {
				t.Fatal(err)
			}
			if e.Plan() == nil {
				t.Fatal("compressed engine lost its plan")
			}
			if want := 256 + 256 + 232; e.Dim() != want {
				t.Fatalf("pruned Dim %d, want %d", e.Dim(), want)
			}
			if e.ModelVersion() == src.ModelVersion() {
				t.Fatal("compressed engine advertises the source model version")
			}
			if e.ModelBytes() >= src.ModelBytes() {
				t.Fatalf("compressed ModelBytes %d not below source %d", e.ModelBytes(), src.ModelBytes())
			}
			got, err := e.Predict(test.Images)
			if err != nil {
				t.Fatal(err)
			}
			want, err := src.Predict(test.Images)
			if err != nil {
				t.Fatal(err)
			}
			agree := 0
			for i := range want {
				if got[i] == want[i] {
					agree++
				}
			}
			if agree*100 < len(want)*75 {
				t.Fatalf("compressed engine agrees with source on only %d/%d samples", agree, len(want))
			}
		})
	}
}

// TestCompressRejectsCompressedEngine: a compressed engine is not a search
// source; re-compressing it is an error.
func TestCompressRejectsCompressedEngine(t *testing.T) {
	p, test := buildBigPipeline(t, func(c *core.Config) {})
	pruned := engine.NewCompressPlan(1000, []int{0, 2}, engine.PrecisionTernary, 0)
	e, err := engine.Compile(p, engine.WithCompression(pruned))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Compress(engine.CompressTarget{Calib: test.Images}); err == nil {
		t.Fatal("expected error compressing an already-compressed engine")
	}
}

// TestCompressSearch: the default accuracy-target search returns a
// configuration within budget, no larger than the source, with a coherent
// report — and the whole pass is deterministic (same calibration set → same
// engine version, same predictions).
func TestCompressSearch(t *testing.T) {
	p, test := buildBigPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	target := engine.CompressTarget{Calib: test.Images, Labels: test.Labels, MaxAccuracyDrop: 10}
	c1, rep, err := e.Compress(target)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CalibDrop > 10+1e-9 {
		t.Fatalf("search exceeded the accuracy budget: drop %.2f", rep.CalibDrop)
	}
	if rep.BytesAfter > rep.BytesBefore {
		t.Fatalf("compression grew the engine: %d -> %d", rep.BytesBefore, rep.BytesAfter)
	}
	if rep.BytesAfter != c1.ModelBytes() || rep.BytesBefore != e.ModelBytes() {
		t.Fatal("report bytes disagree with the engines")
	}
	if rep.OrigD != 1000 || rep.D != c1.Dim() {
		t.Fatalf("report dims %d/%d, want 1000/%d", rep.OrigD, rep.D, c1.Dim())
	}
	if rep.KeepRatio <= 0 || rep.KeepRatio > 1 || len(rep.KeepBlocks) == 0 {
		t.Fatalf("report keep %v ratio %v", rep.KeepBlocks, rep.KeepRatio)
	}
	if rep.Candidates < 1 || rep.Holdout != 22 {
		t.Fatalf("report candidates=%d holdout=%d", rep.Candidates, rep.Holdout)
	}
	p1, err := c1.Predict(test.Images)
	if err != nil {
		t.Fatal(err)
	}

	c2, rep2, err := e.Compress(target)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ModelVersion() != c1.ModelVersion() || rep2.Precision != rep.Precision || rep2.Rank != rep.Rank {
		t.Fatal("Compress is not deterministic")
	}
	p2, err := c2.Predict(test.Images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("two Compress runs predict differently")
		}
	}

	// Fixed configuration: both axes pinned builds exactly that point.
	c3, rep3, err := e.Compress(engine.CompressTarget{
		Calib: test.Images, KeepRatio: 0.5, Precision: engine.PrecisionTernary,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.KeepBlocks) != 2 || rep3.Precision != "ternary" {
		t.Fatalf("pinned config got keep=%v precision=%s", rep3.KeepBlocks, rep3.Precision)
	}
	found := false
	for _, sb := range c3.BytesBreakdown() {
		if strings.Contains(sb.Name, "classify-ternary") {
			found = true
		}
	}
	if !found {
		t.Fatalf("pinned ternary engine stages %v lack a ternary classifier", c3.Stages())
	}
}

// TestCompressLowRankFold: a rank-bearing plan factorizes the manifold and
// folds the small up factor into the projection — the engine must agree with
// the pipeline reference run over the same factorized manifold, unfolded
// (the fold's argmax contract), and come out smaller than the dense-FC plan.
func TestCompressLowRankFold(t *testing.T) {
	p, test := buildBigPipeline(t, func(c *core.Config) {})
	keep := allBlocks(1000)
	ranked := engine.NewCompressPlan(1000, keep, engine.PrecisionKeep, 8)
	dense := engine.NewCompressPlan(1000, []int{0, 1, 2}, engine.PrecisionKeep, 0)

	fused, err := engine.Compile(p, engine.WithCompression(ranked))
	if err != nil {
		t.Fatal(err)
	}
	foldName := false
	for _, name := range fused.Stages() {
		if strings.Contains(name, "manifold*project") {
			foldName = true
		}
	}
	if !foldName {
		t.Fatalf("rank-8 plan did not fold the factorized manifold: stages %v", fused.Stages())
	}
	a, err := fused.Predict(test.Images)
	if err != nil {
		t.Fatal(err)
	}
	ref := *p
	if ref.Manifold, err = p.Manifold.Factorize(8); err != nil {
		t.Fatal(err)
	}
	b := ref.PredictDirect(test.Images)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: folded factorized pred %d, pipeline reference %d", i, a[i], b[i])
		}
	}

	densed, err := engine.Compile(p, engine.WithCompression(dense))
	if err != nil {
		t.Fatal(err)
	}
	if fused.ModelBytes() >= densed.ModelBytes() {
		t.Fatalf("rank-8 full-width engine (%d B) not smaller than dense 3/4-width (%d B)",
			fused.ModelBytes(), densed.ModelBytes())
	}
}

// TestEngineZeroAllocCompressed rides the `make alloc` gate's TestEngineZeroAlloc
// prefix: the compressed predict path must stay heap-free in steady state for
// both sub-byte precisions.
func TestEngineZeroAllocCompressed(t *testing.T) {
	for _, prec := range []engine.ScorerPrecision{engine.PrecisionInt4, engine.PrecisionTernary} {
		t.Run(prec.String(), func(t *testing.T) {
			p, test := buildBigPipeline(t, func(c *core.Config) {})
			plan := engine.NewCompressPlan(1000, []int{0, 1}, prec, 0)
			e, err := engine.Compile(p, engine.WithCompression(plan))
			if err != nil {
				t.Fatal(err)
			}
			n := e.ChunkSize()
			if n > test.Len() {
				n = test.Len()
			}
			sample := test.Images.Len() / test.Len()
			imgs := tensor.FromSlice(test.Images.Data[:n*sample], n, 3, 16, 16)
			preds := make([]int, n)
			if err := e.PredictInto(imgs, preds); err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(100, func() {
				if err := e.PredictInto(imgs, preds); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Fatalf("compressed PredictInto allocated %.1f times per run", a)
			}
		})
	}
}

// TestCompressedConcurrentPredict hammers a compressed engine from many
// goroutines (run under -race by `make race`): deterministic results while
// arenas recycle.
func TestCompressedConcurrentPredict(t *testing.T) {
	p, test := buildBigPipeline(t, func(c *core.Config) {})
	plan := engine.NewCompressPlan(1000, []int{0, 1, 3}, engine.PrecisionTernary, 0)
	e, err := engine.Compile(p, engine.WithCompression(plan))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Predict(test.Images)
	if err != nil {
		t.Fatal(err)
	}
	const G = 8
	var wg sync.WaitGroup
	errs := make([]error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				got, err := e.Predict(test.Images)
				if err != nil {
					errs[g] = err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs[g] = errors.New("concurrent compressed predictions diverged")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
