package engine_test

import (
	"errors"
	"math"
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
	m.Full().Forward(warm, true)
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
	hvs, err := e.QueryHVs(tensor.New(0, 3, 16, 16))
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

// TestModelVersionTracksContent: retraining changes the version; the
// projection backing does not.
func TestModelVersionTracksContent(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) { c.D = 2333 })
	a, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Compile(p, engine.WithRemat())
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelVersion() != b.ModelVersion() {
		t.Fatal("the projection backing must not change the model version")
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
// tensor whose Data is shorter than its shape claims — comes back as an error
// that is engine.ErrInternal and keeps the panic value; a refused shape is an
// ordinary error; and the engine still serves afterwards.
func TestPredictCheckedInternalError(t *testing.T) {
	p, test := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	sample := test.Images.Len() / test.Len()
	short := &tensor.Tensor{Shape: []int{2, 3, 16, 16}, Data: test.Images.Data[:sample:sample]}
	err = e.PredictChecked(short, make([]int, 2))
	if !errors.Is(err, engine.ErrInternal) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("short Data: err = %v, want ErrInternal carrying the panic value", err)
	}
	if err := e.PredictChecked(tensor.New(2, 1, 16, 16), make([]int, 2)); err == nil || errors.Is(err, engine.ErrInternal) {
		t.Fatalf("bad shape: err = %v, want a plain validation error", err)
	}
	for i := 0; i < 4; i++ { // more calls than there are worker arenas
		if err := e.PredictChecked(short, make([]int, 2)); !errors.Is(err, engine.ErrInternal) {
			t.Fatal(err)
		}
	}
	preds := make([]int, test.Len())
	if err := e.PredictChecked(test.Images, preds); err != nil {
		t.Fatal(err)
	}
	want, _ := e.Predict(test.Images)
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("sample %d: %d after the recovered panics, want %d", i, preds[i], want[i])
		}
	}
}

// TestEnginePredictStream checks ordering, correctness, per-batch error
// isolation, and clean termination of the streaming path.
func TestEnginePredictStream(t *testing.T) {
	p, test := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	sample := test.Images.Len() / test.Len()
	batches := []*tensor.Tensor{
		tensor.FromSlice(test.Images.Data[:5*sample], 5, 3, 16, 16),
		tensor.New(0, 3, 16, 16), // empty batch
		tensor.New(2, 1, 16, 16), // bad shape: must error, not kill the stream
		test.Images,              // full batch, multi-chunk
		tensor.FromSlice(test.Images.Data[:sample], 1, 3, 16, 16),
	}
	in := make(chan *tensor.Tensor)
	go func() {
		for _, b := range batches {
			in <- b
		}
		close(in)
	}()
	var results []engine.StreamResult
	for r := range e.PredictStream(in) {
		results = append(results, r)
	}
	if len(results) != len(batches) {
		t.Fatalf("stream produced %d results, want %d", len(results), len(batches))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d: stream must preserve order", i, r.Index)
		}
	}
	if results[2].Err == nil {
		t.Fatal("bad-shape batch must report an error")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if results[i].Err != nil {
			t.Fatalf("batch %d failed: %v", i, results[i].Err)
		}
		want, _ := e.Predict(batches[i])
		if len(results[i].Preds) != len(want) {
			t.Fatalf("batch %d: %d preds, want %d", i, len(results[i].Preds), len(want))
		}
		for j := range want {
			if results[i].Preds[j] != want[j] {
				t.Fatalf("batch %d sample %d: stream=%d direct=%d", i, j, results[i].Preds[j], want[j])
			}
		}
	}
}

// TestPipelineServesThroughEngine: with this package imported, core routes
// Predict through a compiled engine and recompiles when the model version or
// the inference kernel changes.
func TestPipelineServesThroughEngine(t *testing.T) {
	p, test := buildPipeline(t, func(c *core.Config) {})
	served := p.Predict(test.Images)
	direct := p.PredictDirect(test.Images)
	for i := range direct {
		if served[i] != direct[i] {
			t.Fatalf("sample %d: served=%d direct=%d", i, served[i], direct[i])
		}
	}

	// Mutate the class hypervectors: the cached engine is stale and must be
	// recompiled, tracking the new weights.
	rng := tensor.NewRNG(99)
	u := tensor.New(test.Len(), 4)
	rng.FillNormal(u, 0, 1)
	hvs := p.QueryHVs(test.Images)
	p.HD.ApplyUpdate(u, hvs, 5)
	served2 := p.Predict(test.Images)
	direct2 := p.PredictDirect(test.Images)
	changed := false
	for i := range direct2 {
		if served2[i] != direct2[i] {
			t.Fatalf("after update, sample %d: served=%d direct=%d", i, served2[i], direct2[i])
		}
		if served2[i] != served[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("large model update changed no prediction; staleness untested")
	}

	// Switch the inference kernel: the engine must recompile with the packed
	// classifier even though the model version is unchanged.
	p.Cfg.PackedInference = true
	servedP := p.Predict(test.Images)
	directP := p.PredictDirect(test.Images)
	for i := range directP {
		if servedP[i] != directP[i] {
			t.Fatalf("packed, sample %d: served=%d direct=%d", i, servedP[i], directP[i])
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
