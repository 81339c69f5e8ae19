package engine_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// tinyZoo mirrors the core test helper: a fast 2-unit CNN over 16×16 inputs.
func tinyZoo(seed int64, classes int) *cnn.Model {
	rng := tensor.NewRNG(seed)
	m := &cnn.Model{Name: "tinycnn", InShape: []int{3, 16, 16}, Classes: classes}
	m.Units = append(m.Units,
		cnn.Unit{Index: 0, Label: "conv0", Layers: []nn.Layer{
			nn.NewConv2D(rng, 3, 8, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
		cnn.Unit{Index: 1, Label: "conv1", Layers: []nn.Layer{
			nn.NewConv2D(rng, 8, 16, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
	)
	m.Head = []nn.Layer{nn.NewFlatten(), nn.NewLinear(rng, 16*4*4, classes, true)}
	return m.Finish()
}

// zooModel builds a registered zoo CNN with every BatchNorm made nontrivial:
// random γ/β, and running statistics taken from one training-mode pass, so
// the inference affine is not the near-identity of a fresh layer.
func zooModel(t *testing.T, name string) *cnn.Model {
	t.Helper()
	rng := tensor.NewRNG(63)
	m, err := cnn.Build(name, rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, prm := range m.Full().Params() {
		switch {
		case strings.HasSuffix(prm.Name, ".gamma"):
			rng.FillUniform(prm.W, 0.5, 1.5)
		case strings.HasSuffix(prm.Name, ".beta"):
			rng.FillUniform(prm.W, -0.5, 0.5)
		}
	}
	warm := tensor.New(8, m.InShape[0], m.InShape[1], m.InShape[2])
	rng.FillNormal(warm, 0, 1)
	m.Full().Forward(tensor.NewArena(), warm)
	return m
}

// buildPipeline assembles a pipeline over the tiny fixture CNN (cut 1) with
// bundled (nontrivial) class hypervectors plus train/test splits.
func buildPipeline(t *testing.T, mut func(*core.Config)) (*core.Pipeline, *dataset.Dataset) {
	t.Helper()
	return buildPipelineOn(t, tinyZoo(62, 4), 1, mut)
}

// buildPipelineOn is buildPipeline over any 4-class model and cut layer.
// Bundling alone gives every class a distinct hypervector without paying for
// the full retraining loop. D = 70 unless mut changes it: not divisible by
// 64, so the packed classifier's tail-word masking is always on the line.
func buildPipelineOn(t *testing.T, m *cnn.Model, cut int, mut func(*core.Config)) (*core.Pipeline, *dataset.Dataset) {
	t.Helper()
	cfgD := dataset.SynthConfig{Classes: 4, Train: 40, Test: 21, Size: m.InShape[1], Noise: 0.2, Seed: 61}
	train, test := dataset.SynthCIFAR(cfgD)
	cfg := core.DefaultConfig(cut, 4)
	cfg.D = 70
	cfg.FHat = 16
	cfg.Seed = 7
	cfg.BatchSize = 8
	mut(&cfg)
	p, err := core.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	return p, test
}

// buildBigPipeline is buildPipeline at a dimension wide enough for several
// tail blocks: D = 1000 spans four 256-column panel blocks, the last a ragged
// 232 columns, so the packed classifier's tail-word masking is on the line
// after three full blocks; 5 classes, 44 test images.
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

// widenClasses replaces p's class memory with k classes — class c is bundled
// class c mod K plus seeded noise at a third of its RMS: distinct rows, far
// from any tie — so the 4-class fixtures reach the float scorer's 16-class
// strips (K ≥ 16), which no trained fixture here does.
func widenClasses(p *core.Pipeline, k int) {
	d := p.Cfg.D
	m := &hdlearn.Model{K: k, D: d, M: tensor.New(k, d)}
	tensor.NewRNG(64).FillNormal(m.M, 0, 1)
	for c := 0; c < k; c++ {
		src, dst := p.HD.M.Row(c%p.HD.K), m.M.Row(c)
		rms := float32(hdc.Hypervector(src).Norm() / math.Sqrt(float64(d)))
		for j := range dst {
			dst[j] = src[j] + rms/3*dst[j]
		}
	}
	p.HD = m
}

func TestEngineEmptyAndInvalidInput(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := e.Predict(tensor.New(0, 3, 16, 16))
	if err != nil || len(preds) != 0 {
		t.Fatalf("empty batch: preds=%v err=%v", preds, err)
	}
	hvs, err := engine.QueryHVs(e, tensor.New(0, 3, 16, 16))
	if err != nil || hvs.Shape[0] != 0 || hvs.Shape[1] != 70 {
		t.Fatalf("empty QueryHVs: shape=%v err=%v", hvs.Shape, err)
	}
	if _, err := e.Predict(tensor.New(2, 1, 16, 16)); err == nil {
		t.Fatal("expected channel-mismatch error")
	}
	if _, err := e.Predict(tensor.New(4, 16, 16)); err == nil {
		t.Fatal("expected rank error")
	}
	if err := e.PredictInto(tensor.New(3, 3, 16, 16), make([]int, 2)); err == nil {
		t.Fatal("expected preds-length error")
	}
	if _, err := engine.Compile(nil); err == nil {
		t.Fatal("expected nil-pipeline error")
	}
}

// TestEngineConcurrentPredict hammers one engine from many goroutines (run
// under -race by `make race`): results must stay correct and deterministic
// while worker arenas recycle through the freelist.
func TestEngineConcurrentPredict(t *testing.T) {
	p, test := buildPipeline(t, func(c *core.Config) { c.PackedInference = true })
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Predict(test.Images)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 10
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got, err := e.Predict(test.Images)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- errMismatch
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent Predict disagreed with serial Predict" }

// TestModelVersionTracksContent: retraining changes the version; a compile
// option does not.
func TestModelVersionTracksContent(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) { c.D = 2333 })
	a, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Compile(p, engine.WithUnfusedExtract())
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelVersion() != b.ModelVersion() {
		t.Fatal("a compile option must not change the model version")
	}
	if a.ModelVersion() == 0 {
		t.Fatal("version should be a content hash, got 0")
	}
	p.HD.M.Data[0] += 1
	p.HD.Invalidate()
	c, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.ModelVersion() == a.ModelVersion() {
		t.Fatal("retraining must change the model version")
	}
}

// TestPredictCheckedInternalError: a panic escaping the stage chain — here a
// stage that panics on every call, in a batch split into parts that run on the
// pool's helpers too — comes back as an error that is engine.ErrInternal and
// keeps the panic value, every time, more times than there are worker arenas
// (so every part returned its arena); a refused shape is an ordinary error;
// and the engine still serves afterwards.
func TestPredictCheckedInternalError(t *testing.T) {
	engine.SetSplitFloor(t, 1) // every batch of two or more is split
	p, test := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := e.Predict(test.Images)
	if err := e.PredictChecked(tensor.New(2, 1, 16, 16), make([]int, 2)); err == nil || errors.Is(err, engine.ErrInternal) {
		t.Fatalf("bad shape: err = %v, want a plain validation error", err)
	}
	t.Run("panicking stage", func(t *testing.T) {
		engine.PanicInStages(t, e)
		for i := 0; i < 5; i++ { // more calls than there are worker arenas
			err := e.PredictChecked(test.Images, make([]int, test.Len()))
			if !errors.Is(err, engine.ErrInternal) || !strings.Contains(err.Error(), "stage failed") {
				t.Fatalf("call %d: err = %v, want ErrInternal carrying the panic value", i, err)
			}
		}
	})
	preds := make([]int, test.Len())
	if err := e.PredictChecked(test.Images, preds); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("sample %d: %d after the recovered panics, want %d", i, preds[i], want[i])
		}
	}
}

// TestEngineRejectsShortData: a batch whose Data is shorter than its shape
// says is refused with a plain error before any part runs — through
// PredictInto, PredictChecked and the QueryHVs hook, with and without spare capacity
// behind the short slice, at n = 8 split into parts that run on the pool's
// helpers. Neither read past the slice nor a panic on a helper may happen.
func TestEngineRejectsShortData(t *testing.T) {
	engine.SetSplitFloor(t, 1)
	p, test := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	sample := e.SampleLen()
	for _, c := range []struct {
		name string
		data []float32
	}{
		{"capacity-trimmed", test.Images.Data[: 7*sample : 7*sample]},
		{"spare capacity", test.Images.Data[:7*sample]},
	} {
		short := &tensor.Tensor{Shape: []int{8, 3, 16, 16}, Data: c.data}
		for name, call := range map[string]func() error{
			"PredictInto":    func() error { return e.PredictInto(short, make([]int, 8)) },
			"PredictChecked": func() error { return e.PredictChecked(short, make([]int, 8)) },
			"QueryHVs":       func() error { _, err := engine.QueryHVs(e, short); return err },
		} {
			if err := call(); err == nil || errors.Is(err, engine.ErrInternal) || !strings.Contains(err.Error(), "Data holds") {
				t.Fatalf("%s, %s: err = %v, want the plain length error", c.name, name, err)
			}
		}
	}
}

// TestPredictNonFinitePixels pins what the library does with pixels it does
// not check (DESIGN.md, "Serving engine"): NaN, ±Inf or a float32 near its
// maximum, in one pixel of every image or in all of them, through both
// classifier kernels and a batch split over the pool's helpers. PredictInto
// must not panic, every label must be a class, a repeat call must give the
// same labels, and image 0 alone must get the label it gets in the batch.
// Which label that is, is not pinned: one such pixel can decide it.
func TestPredictNonFinitePixels(t *testing.T) {
	engine.SetSplitFloor(t, 1)
	for _, packed := range []bool{false, true} {
		p, test := buildPipeline(t, func(c *core.Config) { c.PackedInference = packed })
		e, err := engine.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		n, sample, k := test.Len(), e.SampleLen(), e.Classes()
		for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38} {
			for _, every := range []bool{false, true} {
				name := fmt.Sprintf("%s/%g/every=%v", kernelName(packed), v, every)
				imgs := tensor.New(test.Images.Shape...)
				copy(imgs.Data, test.Images.Data)
				for i := 0; i < n; i++ {
					img := imgs.Data[i*sample : (i+1)*sample]
					if every {
						for j := range img {
							img[j] = v
						}
					} else {
						img[sample/2] = v
					}
				}
				predict := func(x *tensor.Tensor) []int {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: PredictInto panicked: %v", name, r)
						}
					}()
					preds := make([]int, x.Shape[0])
					if err := e.PredictInto(x, preds); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return preds
				}
				first, again, alone := predict(imgs), predict(imgs), predict(firstImages(imgs, 1))
				for i, c := range first {
					if c < 0 || c >= k {
						t.Fatalf("%s: image %d labelled %d, outside [0, %d)", name, i, c, k)
					}
					if again[i] != c {
						t.Fatalf("%s: image %d labelled %d, then %d", name, i, c, again[i])
					}
				}
				if alone[0] != first[0] {
					t.Fatalf("%s: image 0 alone labelled %d, in the batch %d", name, alone[0], first[0])
				}
			}
		}
	}
}

func TestEngineStagesReported(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	names := e.Stages()
	want := []string{"extract", "manifold", "fuse(project+classify-float)"}
	if len(names) != len(want) {
		t.Fatalf("stages %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages %v, want %v", names, want)
		}
	}
	if e.ChunkSize() < 1 || e.ArenaBytes() <= 0 {
		t.Fatalf("chunk=%d arenaBytes=%d", e.ChunkSize(), e.ArenaBytes())
	}
	// The timing probe splits the tail row into the GEMM and its consumer.
	in := e.InShape()
	times, err := e.TimeStages(tensor.New(2, in[0], in[1], in[2]), 2)
	if err != nil {
		t.Fatal(err)
	}
	tail := times[len(times)-1]
	if len(tail.Sub) != 2 || tail.Sub[0].Name != "project" || tail.Sub[1].Name != "score" ||
		tail.Sub[0].Seconds <= 0 || tail.Sub[1].Seconds <= 0 ||
		math.Abs(tail.Sub[0].Seconds+tail.Sub[1].Seconds-tail.Seconds) > 1e-9 {
		t.Fatalf("tail row %+v, want project + score sub-rows summing to it", tail)
	}
}

// TestCompileLoadedBaselineHD: a BaselineHD pipeline saved and loaded back
// compiles to the extract, flatten, lsh chain and serves the labels of both
// the loaded and the saved pipeline's direct path.
func TestCompileLoadedBaselineHD(t *testing.T) {
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(5, 4)
	cfg.D = 70
	p, err := core.NewBaselineHD(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tensor.NewRNG(65).FillNormal(p.HD.M, 0, 1)
	path := filepath.Join(t.TempDir(), "baseline.gob")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, q, e)
	images := tensor.New(9, 3, 32, 32)
	tensor.NewRNG(66).FillNormal(images, 0, 1)
	got, err := e.Predict(images)
	if err != nil {
		t.Fatal(err)
	}
	if want := q.PredictDirect(images); !slices.Equal(got, want) {
		t.Fatalf("engine labels %v, loaded pipeline's %v", got, want)
	}
	if want := p.PredictDirect(images); !slices.Equal(got, want) {
		t.Fatalf("engine labels %v, saved pipeline's %v", got, want)
	}
}
