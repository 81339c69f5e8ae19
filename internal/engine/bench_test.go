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
// fixtures do (zoo model at size×size, D=3000, F̂=100, chunk 32) plus the
// images it was bundled from.
func benchSetup(b *testing.B, model string, cut, size int) (*core.Pipeline, *tensor.Tensor) {
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
	return p, train.Images
}

// BenchmarkEnginePredict is PredictInto at the request shapes the batch split
// decides on: vgg16 cut 8 at 32×32 (6.3 M extractor MACs an image) from one
// image, which stays on the caller, through the batcher's flush sizes; the
// same model at 96×96, where one image is a two-tile fused block; and two
// images of mobilenetv2 cut 1, the smallest fixture, whose parts fall under
// the work floor. The n2 rows on either side of engine.splitMinMACs are the
// evidence for its value (DESIGN.md, "Serving engine").
//
// The -unfused and -remat rows are the same pipeline compiled with that one
// option, in the same process as the float row beside them, at the shapes
// ROADMAP's fused-vs-unfused trial names (32×32 n = 1 and 16, 96×96 n = 1):
// the only standing reading of those two paths.
func BenchmarkEnginePredict(b *testing.B) {
	for _, c := range []struct {
		model     string
		cut, size int
		ns        []int
		variantNs []int
	}{
		{"vgg16", 8, 32, []int{1, 2, 8, 16}, []int{1, 16}},
		{"vgg16", 8, 96, []int{1}, []int{1}},
		{"mobilenetv2", 1, 32, []int{2}, nil},
	} {
		p, imgs := benchSetup(b, c.model, c.cut, c.size)
		for _, v := range []struct {
			suffix string
			opts   []engine.Option
		}{
			{"", nil},
			{"-unfused", []engine.Option{engine.WithUnfusedExtract()}},
			{"-remat", []engine.Option{engine.WithRemat()}},
		} {
			ns := c.variantNs
			if v.suffix == "" {
				ns = c.ns
			}
			if len(ns) == 0 {
				continue
			}
			e, err := engine.Compile(p, v.opts...)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range ns {
				b.Run(fmt.Sprintf("%s-%d-n%d%s", c.model, c.size, n, v.suffix), func(b *testing.B) {
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
}

func BenchmarkPipelineDirectPredict(b *testing.B) {
	p, imgs := benchSetup(b, "mobilenetv2", 5, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictDirect(imgs)
	}
}
