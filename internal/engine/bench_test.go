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

// benchFixture is a serving fixture: the zoo model cut and fed at size×size,
// K classes, D, the engine chunk, and the images it is bundled from (and
// predicts).
type benchFixture struct {
	model                   string
	cut, size               int
	classes, d, chunk, imgs int
}

// servingFixture is the repo benchmark's vgg16 serving fixture shape (K = 10,
// D = 3000, F̂ = 100, chunk 32) for any model, cut and size.
func servingFixture(model string, cut, size int) benchFixture {
	return benchFixture{model: model, cut: cut, size: size, classes: 10, d: 3000, chunk: 32, imgs: 64}
}

// benchSetup builds a bundled pipeline the way the repo benchmark's fixtures
// do (F̂ = 100, float scorer) plus the images it was bundled from.
func benchSetup(b *testing.B, f benchFixture) (*core.Pipeline, *tensor.Tensor) {
	b.Helper()
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: f.classes, Train: f.imgs, Test: 8, Size: f.size, Noise: 0.2, Seed: 71,
	})
	zoo, err := cnn.Build(f.model, tensor.NewRNG(72), f.classes)
	if err != nil {
		b.Fatal(err)
	}
	zoo.InShape = []int{3, f.size, f.size}
	cfg := core.DefaultConfig(f.cut, f.classes)
	cfg.Seed = 73
	cfg.D = f.d
	cfg.FHat = 100
	cfg.BatchSize = f.chunk
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
// evidence for its value (DESIGN.md, "Serving engine"). The MobileNet rows
// time the inverted-residual layers: the offline_tail workload's fixture
// (cut 1 = stem + invres(8→4,s1,t1), K = 100, D = 10 000, chunk 64, one call
// of 256 images) and the paper's cut 14 at 64 images. The vgg16@29 rows are
// the paper's deepest VGG cut, whose 8×8 to 2×2 convs run unfused in rows
// form, from one image and from 64.
//
// The -unfused rows are the same pipeline compiled WithUnfusedExtract, in the
// same process as the float row beside them, at the shapes ROADMAP's
// fused-vs-unfused trial names (32×32 n = 1 and 16, 96×96 n = 1): the only
// standing reading of that path. Every row serves the projection from sign
// words.
func BenchmarkEnginePredict(b *testing.B) {
	for _, c := range []struct {
		name      string
		fx        benchFixture
		ns        []int
		variantNs []int
	}{
		{"vgg16-32", servingFixture("vgg16", 8, 32), []int{1, 2, 8, 16}, []int{1, 16}},
		{"vgg16-96", servingFixture("vgg16", 8, 96), []int{1}, []int{1}},
		{"mobilenetv2-32", servingFixture("mobilenetv2", 1, 32), []int{2}, nil},
		{"offline_tail", benchFixture{model: "mobilenetv2", cut: 1, size: 32, classes: 100, d: 10000, chunk: 64, imgs: 256}, []int{256}, nil},
		{"mobilenetv2@14", servingFixture("mobilenetv2", 14, 32), []int{64}, nil},
		{"vgg16@29", servingFixture("vgg16", 29, 32), []int{1, 64}, nil},
	} {
		p, imgs := benchSetup(b, c.fx)
		for _, v := range []struct {
			suffix string
			opts   []engine.Option
		}{
			{"", nil},
			{"-unfused", []engine.Option{engine.WithUnfusedExtract()}},
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
				b.Run(fmt.Sprintf("%s-n%d%s", c.name, n, v.suffix), func(b *testing.B) {
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
	p, imgs := benchSetup(b, servingFixture("mobilenetv2", 5, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictDirect(imgs)
	}
}
