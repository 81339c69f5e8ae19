package main

import (
	"fmt"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// Workload kinds: what one operation is and who waits for it.
const (
	kindHTTPBinary = "http-binary" // POST /predict, octet-stream frame
	kindHTTPJSON   = "http-json"   // POST /predict, JSON body
	kindEngine     = "engine"      // Engine.PredictInto, no HTTP
	kindTrain      = "train"       // pretrain + HD train + compile + predict
)

// Model weight seeds are fixed (as in cmd/nshd-bench/fixture.go) so that
// model_bytes and the compile plan do not depend on --seed; --seed drives
// the images and the request order only.
const (
	zooSeed      = 72
	pipelineSeed = 73
	pretrainSeed = 74
)

// workload is one set of inputs the benchmark runs. Its JSON form is the
// "workload config" of the result record.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Kind string `json:"kind"`

	Model   string `json:"model"`
	Cut     int    `json:"cut"`
	Classes int    `json:"classes"`
	D       int    `json:"d"`
	FHat    int    `json:"fhat"`
	Size    int    `json:"size"` // input is 3×Size×Size
	Chunk   int    `json:"chunk"`
	Packed  bool   `json:"packed"`

	TrainN int `json:"train_n"` // images the class hypervectors are built from
	PoolN  int `json:"pool_n"`  // distinct images requests draw from

	Clients    int `json:"clients"`     // closed loop: each waits for its reply
	PerRequest int `json:"per_request"` // images per operation
	// MaxDelayUs is serve.Options.MaxDelay: <0 greedy, 0 the 1 ms default.
	MaxDelayUs int64 `json:"max_delay_us"`

	// Train workload only.
	PretrainEpochs int     `json:"pretrain_epochs,omitempty"`
	HDEpochs       int     `json:"hd_epochs,omitempty"`
	MinAccuracy    float64 `json:"min_accuracy,omitempty"`
}

// workloads is the benchmark's fixed workload list; README.md says why each
// exists and which layer it stresses.
func workloads() []*workload {
	return []*workload{
		{
			Name: "online_single", Kind: kindHTTPBinary,
			Why:   "one 32x32 image per binary /predict over loopback HTTP, 1 client, greedy batcher: the request as an interactive client sees it",
			Model: "vgg16", Cut: 8, Classes: 10, D: 3000, FHat: 100, Size: 32, Chunk: 32, Packed: true,
			TrainN: 128, PoolN: 512, Clients: 1, PerRequest: 1, MaxDelayUs: -1,
		},
		{
			Name: "online_json", Kind: kindHTTPJSON,
			Why:   "8 images per JSON /predict, 2 clients, 1 ms linger: text decode and batching dominate, so extract or tail gains must not show here",
			Model: "vgg16", Cut: 8, Classes: 10, D: 3000, FHat: 100, Size: 32, Chunk: 32, Packed: true,
			TrainN: 128, PoolN: 512, Clients: 2, PerRequest: 8, MaxDelayUs: 0,
		},
		{
			Name: "embedded_large", Kind: kindEngine,
			Why:   "Engine.PredictInto on one 96x96 image, no HTTP: feature maps leave L2, extract is about 80% of the call, the tail under 2%",
			Model: "vgg16", Cut: 8, Classes: 10, D: 3000, FHat: 100, Size: 96, Chunk: 32, Packed: true,
			TrainN: 32, PoolN: 64, Clients: 1, PerRequest: 1,
		},
		{
			Name: "offline_tail", Kind: kindEngine,
			Why:   "Engine.PredictInto on 256 images, 100 classes, D=10000, float cosine scorer, chunk 64 on both cores: the tail-heaviest config, project+score near half the time",
			Model: "mobilenetv2", Cut: 1, Classes: 100, D: 10000, FHat: 100, Size: 32, Chunk: 64, Packed: false,
			TrainN: 400, PoolN: 1024, Clients: 1, PerRequest: 256,
		},
		{
			Name: "train", Kind: kindTrain,
			Why:   "cnn.Pretrain, Pipeline.Train with KD, engine.Compile, predict the test split: the write side of the tensor/nn/hdlearn kernels that serving shares",
			Model: "vgg16", Cut: 8, Classes: 10, D: 3000, FHat: 100, Size: 32, Chunk: 32, Packed: false,
			TrainN: 512, PoolN: 512, Clients: 1, PerRequest: 1,
			PretrainEpochs: 3, HDEpochs: 10, MinAccuracy: 0.25,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stride is the distance in images between the starts of two requests in
// the pool: requests tile the pool, and a request larger than one engine
// chunk may start at any chunk boundary.
func (w *workload) stride() int {
	if w.PerRequest > w.Chunk {
		return w.Chunk
	}
	return w.PerRequest
}

// slots is the number of distinct requests the pool holds.
func (w *workload) slots() int { return (w.PoolN-w.PerRequest)/w.stride() + 1 }

func (w *workload) pipelineConfig() core.Config {
	cfg := core.DefaultConfig(w.Cut, w.Classes)
	cfg.Seed = pipelineSeed
	cfg.D = w.D
	cfg.FHat = w.FHat
	cfg.BatchSize = w.Chunk // engine chunk = batcher MaxBatch
	cfg.PackedInference = w.Packed
	return cfg
}

// fixtureTimes are the set-up steps of one fixture build, in seconds at
// reference speed (see calib.go); SpeedFactor converts back to the clock.
type fixtureTimes struct {
	SpeedFactor                            float64
	Synth, Extract, Bundle, Compile, Total float64
}

// fixture is a compiled serving model plus the requests a workload sends it.
type fixture struct {
	w     *workload
	train *dataset.Dataset
	pool  *dataset.Dataset
	p     *core.Pipeline
	e     *engine.Engine
	ref   []int // Pipeline.PredictDirect label of every pool image
	times fixtureTimes
	// trainAccuracy is the bundled model's accuracy on its own training
	// hypervectors.
	trainAccuracy float64
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// buildFixture goes from nothing to the first answered prediction, with no
// on-disk cache: synthesize the images, build the zoo model, extract
// features, bundle the class hypervectors (single-pass HD training, enough
// to give every class a distinct hypervector), compile the engine and serve
// one request-shaped call. The sum is the workload's setup_s.
func buildFixture(w *workload, seed int64, cal *calibrator) (*fixture, error) {
	f := &fixture{w: w}
	start := time.Now()
	f.train, f.pool = dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: w.Classes, Train: w.TrainN, Test: w.PoolN, Size: w.Size, Noise: 0.2, Seed: seed,
	})
	f.times.Synth = since(start)

	zoo, err := cnn.Build(w.Model, tensor.NewRNG(zooSeed), w.Classes)
	if err != nil {
		return nil, err
	}
	zoo.InShape = []int{3, w.Size, w.Size}
	f.p, err = core.New(zoo, w.pipelineConfig())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	feats := f.p.ExtractFeatures(f.train.Images)
	f.times.Extract = since(t0)
	t0 = time.Now()
	_, _, signed := f.p.Symbolize(feats, false)
	f.p.HD.InitBundle(signed, f.train.Labels)
	// Bundled class hypervectors are small integers, so two classes can tie
	// exactly on a query, and the float engine breaks an exact tie otherwise
	// than PredictDirect does (it took a later maximum where PredictDirect
	// takes the first; seen with one image per class). A served model is
	// trained, hence real-valued: a seeded dither of 1e-3 stands in for that
	// and leaves no exact ties for the correctness gate to trip on.
	dither := tensor.New(f.p.HD.M.Shape...)
	tensor.NewRNG(pipelineSeed).FillNormal(dither, 0, 1e-3)
	for i, d := range dither.Data {
		f.p.HD.M.Data[i] += d
	}
	f.p.HD.Invalidate()
	f.times.Bundle = since(t0)
	f.trainAccuracy = f.p.HD.Accuracy(signed, f.train.Labels)

	t0 = time.Now()
	f.e, err = engine.Compile(f.p)
	if err != nil {
		return nil, err
	}
	f.times.Compile = since(t0)

	if _, err := f.e.Predict(f.images(0, w.PerRequest)); err != nil {
		return nil, err
	}
	f.times.Total = since(start)
	k := cal.factor(start, time.Now())
	t := &f.times
	t.SpeedFactor = k
	for _, v := range []*float64{&t.Synth, &t.Extract, &t.Bundle, &t.Compile, &t.Total} {
		*v /= k
	}
	return f, nil
}

// images views pool images [at, at+n) as a tensor without copying.
func (f *fixture) images(at, n int) *tensor.Tensor {
	sl := f.e.SampleLen()
	return tensor.FromSlice(f.pool.Images.Data[at*sl:(at+n)*sl], n, 3, f.w.Size, f.w.Size)
}

// gate is the correctness check before timing: the engine, called with the
// workload's own request shape, must label every pool image as
// Pipeline.PredictDirect (the training-side reference path) does.
func (f *fixture) gate() error {
	f.ref = f.p.PredictDirect(f.pool.Images)
	n := f.w.PerRequest
	preds := make([]int, n)
	for at := 0; at+n <= f.w.PoolN; at += n {
		if err := f.e.PredictInto(f.images(at, n), preds); err != nil {
			return err
		}
		for i, p := range preds {
			if p != f.ref[at+i] {
				return fmt.Errorf("%s: engine labels image %d as %d, PredictDirect as %d", f.w.Name, at+i, p, f.ref[at+i])
			}
		}
	}
	return nil
}
