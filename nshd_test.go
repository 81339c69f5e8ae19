package nshd_test

import (
	"math"
	"strings"
	"testing"

	"nshd"
)

// TestFacadeEndToEnd drives the whole public API surface at miniature scale:
// data generation, zoo construction, pretraining, NSHD assembly, training,
// persistence and the auxiliary analysis entry points.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := nshd.SynthConfig{Classes: 4, Train: 64, Test: 32, Size: 32, Noise: 0.25, Seed: 3}
	train, test := nshd.SynthCIFAR(cfg)
	means, stds := train.Normalize()
	test.ApplyNormalization(means, stds)

	zoo, err := nshd.BuildModel("mobilenetv2", 1, train.Classes)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := nshd.DefaultPretrainConfig()
	pcfg.Epochs = 2 // smoke-level training only
	if _, _, err := nshd.Pretrain(zoo, train, pcfg, nshd.NewRNG(7)); err != nil {
		t.Fatal(err)
	}

	mcfg := nshd.DefaultConfig(17, train.Classes)
	mcfg.D = 256
	mcfg.FHat = 16
	mcfg.Epochs = 2
	model, err := nshd.New(zoo, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Train(train, nil); err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(test); acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}

	// Baseline variant through the facade.
	if _, err := nshd.NewBaselineHD(zoo, mcfg); err != nil {
		t.Fatal(err)
	}

	// VanillaHD through the facade.
	vcfg := nshd.DefaultVanillaConfig()
	vcfg.D = 256
	vcfg.Epochs = 1
	van, err := nshd.NewVanillaHD(train, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := van.Train(train, nil); err != nil {
		t.Fatal(err)
	}

	// Persistence round trip.
	path := t.TempDir() + "/m.gob"
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := nshd.LoadPipeline(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := model.PredictDirect(test.Images), back.PredictDirect(test.Images)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reloaded pipeline diverges")
		}
	}

	// Hardware models.
	if err := nshd.XavierModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := nshd.DefaultDPU().Validate(); err != nil {
		t.Fatal(err)
	}

	// HD algebra helpers.
	rng := nshd.NewRNG(11)
	x, y := nshd.RandomBipolar(rng, 512), nshd.RandomBipolar(rng, 512)
	if got := nshd.Dot(nshd.Bind(x, y), nshd.Bind(x, y)); got != 512 {
		t.Fatalf("bind self-dot = %v", got)
	}
	sum := nshd.Bundle(x, y)
	if math.Abs(nshd.Dot(sum, x)-512) > 512 {
		t.Fatalf("bundle similarity out of range: %v", nshd.Dot(sum, x))
	}

	// t-SNE utilities.
	hvs := model.QueryHVs(test.Images)
	tcfg := nshd.DefaultTSNEConfig()
	tcfg.Perplexity = 5
	tcfg.Iters = 30
	emb, err := nshd.TSNEEmbed(hvs, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := nshd.KNNPurity(emb, test.Labels, 5); p < 0 || p > 1 {
		t.Fatalf("purity %v", p)
	}
}

func TestModelNamesAndLayers(t *testing.T) {
	names := nshd.ModelNames()
	if len(names) != 4 {
		t.Fatalf("zoo names: %v", names)
	}
	for _, n := range names {
		if len(nshd.PaperLayers(n)) == 0 {
			t.Fatalf("%s has no paper layers", n)
		}
	}
}

// TestRunManifest: the header line names the revision, the caller's settings
// in order, the worker count and the kernels, on one line.
func TestRunManifest(t *testing.T) {
	got := nshd.RunManifest("preset", "quick", "seed", 7, "d", 3000)
	want := " preset=quick seed=7 d=3000 workers="
	if !strings.HasPrefix(got, "# run: rev=") || !strings.Contains(got, " modified=") || !strings.Contains(got, want) ||
		!strings.HasSuffix(got, " kernels="+nshd.KernelISA()) || strings.Contains(got, "\n") {
		t.Errorf("RunManifest = %q", got)
	}
}
