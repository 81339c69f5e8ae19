package engine_test

import (
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// TestEngineZeroAllocBatch1ImplicitConv covers the implicit-GEMM convolution
// path under the alloc gate: the wide (32- and 16-column) conv layers of a
// vgg16 prefix on 32×32 inputs read their padded window in place, so batch-1
// inference runs tensor.ConvMulSerialInto from arena scratch — and must stay
// allocation-free.
func TestEngineZeroAllocBatch1ImplicitConv(t *testing.T) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 4, Train: 16, Test: 4, Size: 32, Noise: 0.2, Seed: 81,
	})
	zoo, err := cnn.Build("vgg16", tensor.NewRNG(82), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4, 4)
	cfg.Seed = 83
	cfg.D = 600
	cfg.FHat = 40
	p, err := core.New(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	requireZeroAlloc(t, e, firstImages(train.Images, 1))
}
