package engine_test

import (
	"fmt"
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// benchSetup builds a bundled pipeline the way the repo benchmark's serving
// fixtures do (zoo model at size×size, D=3000, F̂=100, chunk 32) plus its
// compiled engine and a pool of images.
func benchSetup(b *testing.B, model string, cut, size int) (*core.Pipeline, *engine.Engine, *tensor.Tensor) {
	b.Helper()
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Train: 64, Test: 8, Size: size, Noise: 0.2, Seed: 71,
	})
	zoo, err := cnn.Build(model, tensor.NewRNG(72), 10)
	if err != nil {
		b.Fatal(err)
	}
	zoo.InShape = []int{3, size, size}
	cfg := core.DefaultConfig(cut, 10)
	cfg.Seed = 73
	cfg.D = 3000
	cfg.FHat = 100
	p, err := core.New(zoo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	return p, e, train.Images
}

// BenchmarkEnginePredict is PredictInto at the request shapes the batch split
// decides on: vgg16 cut 8 at 32×32 (6.3 M extractor MACs an image) from one
// image, which stays on the caller, through the batcher's flush sizes; the
// same model at 96×96, where one image is a two-tile fused block; and two
// images of mobilenetv2 cut 1, the smallest fixture, whose parts fall under
// the work floor. The n2 rows on either side of engine.splitMinMACs are the
// evidence for its value (DESIGN.md, "Serving engine").
func BenchmarkEnginePredict(b *testing.B) {
	for _, c := range []struct {
		model     string
		cut, size int
		ns        []int
	}{
		{"vgg16", 8, 32, []int{1, 2, 8, 16}},
		{"vgg16", 8, 96, []int{1}},
		{"mobilenetv2", 1, 32, []int{2}},
	} {
		_, e, imgs := benchSetup(b, c.model, c.cut, c.size)
		for _, n := range c.ns {
			b.Run(fmt.Sprintf("%s-%d-n%d", c.model, c.size, n), func(b *testing.B) {
				batch := firstImages(imgs, n)
				preds := make([]int, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.PredictInto(batch, preds); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "images/s")
			})
		}
	}
}

func BenchmarkPipelineDirectPredict(b *testing.B) {
	p, _, imgs := benchSetup(b, "mobilenetv2", 5, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictDirect(imgs)
	}
}
