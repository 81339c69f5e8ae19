package cnn

import (
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"nshd/internal/dataset"
	"nshd/internal/nn"
	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

func buildAll(t *testing.T) map[string]*Model {
	t.Helper()
	out := make(map[string]*Model)
	for _, name := range Names() {
		m, err := Build(name, tensor.NewRNG(1), 10)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

func TestZooForwardShapes(t *testing.T) {
	x := tensor.New(2, 3, 32, 32)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	for name, m := range buildAll(t) {
		logits := nn.PredictLogits(m.Full(), x, 0)
		if logits.Rank() != 2 || logits.Shape[0] != 2 || logits.Shape[1] != 10 {
			t.Fatalf("%s: logits shape %v", name, logits.Shape)
		}
		// Shape inference agrees with execution.
		want := m.Full().OutShape(m.InShape)
		if len(want) != 1 || want[0] != 10 {
			t.Fatalf("%s: OutShape %v", name, want)
		}
	}
}

func TestUnitIndexing(t *testing.T) {
	zoo := buildAll(t)
	maxIndex := func(m *Model) int { idx := m.Indices(); return idx[len(idx)-1] }
	// VGG16 follows the torchvision features indexing 0..30.
	if got := maxIndex(zoo["vgg16"]); got != 30 {
		t.Fatalf("vgg16 max index %d, want 30", got)
	}
	// MobileNetV2 has operators 0..18.
	if got := maxIndex(zoo["mobilenetv2"]); got != 18 {
		t.Fatalf("mobilenetv2 max index %d, want 18", got)
	}
	// EfficientNets have stem + 7 stages + head = indices 0..8.
	for _, n := range []string{"effnetb0", "effnetb7"} {
		if got := maxIndex(zoo[n]); got != 8 {
			t.Fatalf("%s max index %d, want 8", n, got)
		}
	}
	// All paper layers must exist on each model.
	for name, m := range zoo {
		for _, l := range PaperLayers(name) {
			if _, err := m.Cut(l); err != nil {
				t.Fatalf("%s: paper layer %d not cuttable: %v", name, l, err)
			}
		}
	}
}

func TestCutInvalidIndex(t *testing.T) {
	m, _ := Build("effnetb0", tensor.NewRNG(3), 10)
	if _, err := m.Cut(99); err == nil {
		t.Fatal("expected error for out-of-range cut")
	}
}

func TestCutSharesParameters(t *testing.T) {
	m, _ := Build("vgg16", tensor.NewRNG(4), 10)
	fe, err := m.Cut(27)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate a full-model conv weight; the cut view must see it.
	conv := m.Units[0].Layers[0].(*nn.Conv2D)
	conv.Weight.W.Data[0] = 1234
	cutConv := fe.Layers[0].(*nn.Conv2D)
	if cutConv.Weight.W.Data[0] != 1234 {
		t.Fatal("Cut must share parameters with the full model")
	}
}

func TestCutForwardMatchesPrefixOfFull(t *testing.T) {
	m, _ := Build("mobilenetv2", tensor.NewRNG(5), 10)
	fe, err := m.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 32, 32)
	tensor.NewRNG(6).FillNormal(x, 0, 1)
	// Running the cut, then the remaining units + head, must equal the full
	// network output.
	mid := nn.Infer(fe, x, 0)
	var rest []nn.Layer
	for _, u := range m.Units {
		if u.Index > 3 {
			rest = append(rest, u.Layers...)
		}
	}
	rest = append(rest, m.Head...)
	tail := nn.NewSequential("tail", rest...)
	got := nn.Infer(tail, mid, 0)
	want := nn.Infer(m.Full(), x, 0)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("cut+tail must reproduce the full forward pass")
		}
	}
}

func TestFeatureDimsDecreaseTowardHead(t *testing.T) {
	// For EfficientNet, deeper cuts should not increase the flattened
	// feature count once spatial downsampling dominates (and the paper's
	// largest F comes from VGG16's late conv layers).
	m, _ := Build("effnetb0", tensor.NewRNG(7), 10)
	f5, _ := m.FeatureDim(5)
	f7, _ := m.FeatureDim(7)
	if f5 <= 0 || f7 <= 0 {
		t.Fatal("feature dims must be positive")
	}
	vgg, _ := Build("vgg16", tensor.NewRNG(8), 10)
	f27, err := vgg.FeatureDim(27)
	if err != nil {
		t.Fatal(err)
	}
	f29, _ := vgg.FeatureDim(29)
	if f27 != f29 {
		// Layers 27 and 29 are both 512/vggWidth-channel activations at the
		// same spatial size (2×2): the feature dim must match.
		t.Fatalf("vgg16 layer 27/29 dims differ: %d vs %d", f27, f29)
	}
}

func TestCostOrderingAcrossModels(t *testing.T) {
	zoo := buildAll(t)
	macs := map[string]int64{}
	params := map[string]int64{}
	for name, m := range zoo {
		s := m.FullStats()
		macs[name] = s.MACs
		params[name] = s.Params
		if s.MACs <= 0 || s.Params <= 0 {
			t.Fatalf("%s: degenerate stats %+v", name, s)
		}
	}
	// Paper ordering: VGG16 has by far the most parameters; EfficientNet-B7
	// ≫ EfficientNet-B0; MobileNetV2 is the smallest-parameter model family
	// member alongside B0.
	if params["vgg16"] <= params["effnetb7"] {
		t.Fatalf("vgg16 params %d should exceed effnetb7 %d", params["vgg16"], params["effnetb7"])
	}
	if params["effnetb7"] <= params["effnetb0"] {
		t.Fatalf("effnetb7 params %d should exceed effnetb0 %d", params["effnetb7"], params["effnetb0"])
	}
	if macs["effnetb7"] <= macs["effnetb0"] {
		t.Fatalf("effnetb7 MACs %d should exceed effnetb0 %d", macs["effnetb7"], macs["effnetb0"])
	}
}

func TestEarlierCutsCostLess(t *testing.T) {
	for name, m := range buildAll(t) {
		layers := PaperLayers(name)
		var prev int64 = -1
		for _, l := range layers {
			s, err := m.CutStats(l)
			if err != nil {
				t.Fatal(err)
			}
			if s.MACs <= prev {
				t.Fatalf("%s: cut MACs not increasing with depth: layer %d has %d (prev %d)",
					name, l, s.MACs, prev)
			}
			prev = s.MACs
		}
		full := m.FullStats().MACs
		if prev > full {
			t.Fatalf("%s: deepest cut MACs %d exceed full model %d", name, prev, full)
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("resnet50", tensor.NewRNG(9), 10); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestPretrainCacheRoundTrip(t *testing.T) {
	cfg := dataset.SynthConfig{Classes: 4, Train: 160, Test: 16, Size: 16, Noise: 0.2, Seed: 21}
	train, _ := dataset.SynthCIFAR(cfg)
	train.Normalize()

	m := tinyCNN(22)

	cacheDir := t.TempDir()
	pcfg := PretrainConfig{Epochs: 12, BatchSize: 16, LR: 0.1, Momentum: 0.9, CacheDir: cacheDir}
	acc1, cached1, err := Pretrain(m, train, pcfg, tensor.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	if cached1 {
		t.Fatal("first pretrain must not hit cache")
	}
	if acc1 < 0.5 {
		t.Fatalf("pretrain accuracy %v too low", acc1)
	}
	// Second call, from the same initial weights and RNG state, restores
	// from cache into a fresh model with identical topology.
	m2 := tinyCNN(22)
	acc2, cached2, err := Pretrain(m2, train, pcfg, tensor.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Fatal("second pretrain must hit cache")
	}
	if acc2 < 0.5 {
		t.Fatalf("cached accuracy %v", acc2)
	}
	for i, p := range m.Full().Params() {
		if !slices.Equal(p.W.Data, m2.Full().Params()[i].W.Data) {
			t.Fatalf("restored %s differs from the trained one", p.Name)
		}
	}
}

// TestPretrainCacheKeysSeed pretrains one model from the same initial
// weights into one cache directory with RNGs of seeds 1 and 2: the second run
// must train its own teacher, not restore the first's.
func TestPretrainCacheKeysSeed(t *testing.T) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 4, Train: 64, Test: 8, Size: 16, Noise: 0.2, Seed: 21})
	cfg := PretrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9, CacheDir: t.TempDir()}
	var weights [2][]float32
	for i, seed := range []int64{1, 2} {
		m := tinyCNN(22)
		if _, cached, err := Pretrain(m, train, cfg, tensor.NewRNG(seed)); err != nil || cached {
			t.Fatalf("seed %d: cached %v, err %v; want a fresh teacher", seed, cached, err)
		}
		weights[i] = m.Full().Params()[0].W.Data
	}
	if slices.Equal(weights[0], weights[1]) {
		t.Fatal("seeds 1 and 2 gave the same teacher weights")
	}
}

// TestCachePathKeysEveryInput changes one input of cachePath at a time, each
// of which Pretrain's result depends on, and requires a new snapshot name;
// the inputs that fix no bit (the log, the kernel width) must keep it.
func TestCachePathKeysEveryInput(t *testing.T) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 4, Train: 32, Test: 8, Size: 16, Noise: 0.2, Seed: 21})
	type inputs struct {
		m   *Model
		d   *dataset.Dataset
		cfg PretrainConfig
		rng *tensor.RNG
	}
	base := func() inputs {
		d := *train
		d.Images = train.Images.Clone()
		d.Labels = slices.Clone(train.Labels)
		return inputs{tinyCNN(22), &d, PretrainConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9, CacheDir: "c"}, tensor.NewRNG(23)}
	}
	want := func() string { in := base(); return in.cfg.cachePath(in.m, in.d, in.rng) }()
	portable := tensor.KernelISA() == "portable"
	for _, c := range []struct {
		name string
		same bool
		mut  func(*testing.T, *inputs)
	}{
		{"model name", false, func(_ *testing.T, in *inputs) { in.m.Name = "tinycnn2" }},
		{"init seed", false, func(_ *testing.T, in *inputs) { in.m = tinyCNN(21) }},
		{"one weight", false, func(_ *testing.T, in *inputs) { in.m.Full().Params()[1].W.Data[0] += 1 }},
		{"one pixel", false, func(_ *testing.T, in *inputs) { in.d.Images.Data[7] += 1 }},
		{"image shape", false, func(_ *testing.T, in *inputs) { in.d.Images = in.d.Images.Reshape(in.d.Len(), 3, 8, 32) }},
		{"one label", false, func(_ *testing.T, in *inputs) { in.d.Labels[3] = (in.d.Labels[3] + 1) % 4 }},
		{"epochs", false, func(_ *testing.T, in *inputs) { in.cfg.Epochs++ }},
		{"batch size", false, func(_ *testing.T, in *inputs) { in.cfg.BatchSize++ }},
		{"lr", false, func(_ *testing.T, in *inputs) { in.cfg.LR *= 1.01 }},
		{"momentum", false, func(_ *testing.T, in *inputs) { in.cfg.Momentum = 0.8 }},
		{"rng seed", false, func(_ *testing.T, in *inputs) { in.rng = tensor.NewRNG(24) }},
		{"rng draws", false, func(_ *testing.T, in *inputs) { in.rng.Int63() }},
		{"portable kernels", portable, func(t *testing.T, _ *inputs) { tensortest.Portable(t) }},
		{"256-bit kernels", true, func(t *testing.T, _ *inputs) { tensortest.Gemm512(t, false) }},
		{"log", true, func(_ *testing.T, in *inputs) { in.cfg.Log = io.Discard }},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := base()
			c.mut(t, &in)
			if got := in.cfg.cachePath(in.m, in.d, in.rng); (got == want) != c.same {
				t.Errorf("path %s, unchanged path %s; same name wanted: %v", got, want, c.same)
			}
		})
	}
}

// tinyCNN is a two-conv model on 16×16 inputs, fast enough to pretrain in a
// test.
func tinyCNN(seed int64) *Model {
	rng := tensor.NewRNG(seed)
	m := &Model{Name: "tinycnn", InShape: []int{3, 16, 16}, Classes: 4}
	m.Units = append(m.Units,
		Unit{Index: 0, Label: "conv", Layers: []nn.Layer{
			nn.NewConv2D(rng, 3, 8, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
		Unit{Index: 1, Label: "conv", Layers: []nn.Layer{
			nn.NewConv2D(rng, 8, 16, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
	)
	m.Head = []nn.Layer{nn.NewFlatten(), nn.NewLinear(rng, 16*4*4, 4, true)}
	return m.Finish()
}

// TestPretrainRejectsDivergedTeacher: a learning rate of 1e30 drives the
// weights to Inf and NaN. Pretrain must fail with ErrDiverged and write no
// snapshot, and a snapshot that holds a non-finite weight must not be
// restored as a teacher.
func TestPretrainRejectsDivergedTeacher(t *testing.T) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 4, Train: 64, Test: 8, Size: 16, Noise: 0.2, Seed: 21})
	dir := t.TempDir()
	cfg := PretrainConfig{Epochs: 2, BatchSize: 16, LR: 1e30, Momentum: 0.9, CacheDir: dir}
	m := tinyCNN(22)
	if _, cached, err := Pretrain(m, train, cfg, tensor.NewRNG(23)); !errors.Is(err, ErrDiverged) || cached {
		t.Fatalf("LR 1e30: err %v, cached %v; want ErrDiverged, not cached", err, cached)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("a diverged teacher was cached: %v", files)
	}

	// A snapshot with one NaN weight, where the cache looks for this model.
	cfg.LR = 0.1
	path := cfg.cachePath(tinyCNN(22), train, tensor.NewRNG(23))
	m = tinyCNN(22)
	m.Full().Params()[0].W.Data[5] = float32(math.NaN())
	if err := nn.SaveModel(m.Full(), path); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := Pretrain(tinyCNN(22), train, cfg, tensor.NewRNG(23)); !errors.Is(err, ErrDiverged) || cached {
		t.Fatalf("NaN snapshot: err %v, cached %v; want ErrDiverged, not cached", err, cached)
	}
}

// BenchmarkTrainStep times one Trainer.Fit step of the full VGG16/4 — forward,
// loss, backward, clip, SGD with momentum and weight decay — at the batch
// size and settings Pretrain configures: the unit cnn.pretrain_s is made of,
// one row per zoo model but EfficientNet-B7 (the `train` workload trains
// vgg16; the paper's headline models are the other two). One Fit call runs
// b.N + 1 one-step epochs; the timer and the allocation counters start at the
// end of the first, which sizes the training arena, so an op is a
// steady-state step (plus its epoch's shuffle and log line).
func BenchmarkTrainStep(b *testing.B) {
	for _, model := range []string{"vgg16", "mobilenetv2", "effnetb0"} {
		b.Run(model, func(b *testing.B) {
			first := true
			m, x, labels, tr := stepFixture(b, model, b.N+1, func() {
				if first {
					b.ResetTimer()
					first = false
				}
			})
			b.ReportAllocs()
			tr.Fit(m.Full(), x, labels, tensor.NewRNG(3))
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/step")
		})
	}
}

// BenchmarkOptimizerStep times one optimizer step on the kernels each build
// serves with — the 512-bit and the AVX2 kernels and the portable Go twins,
// in one process — so that its rows set each kernel's speedup over its twin:
// Adam on the `train` workload's manifold FC (F = 2048 pooled features to
// F̂ = 100, weights and bias), the joint loop's optimizer, and Pretrain's SGD
// with momentum and weight decay on every VGG16/4 parameter, one fan-out
// over them all. The clip-vgg16 rows time Pretrain's nn.ClipGradNorm over the
// same gradients: below maxNorm (the certified norm alone, which is what
// every `train` step runs) and above it (the norm and the rescale; the
// gradients are restored outside the timer between calls).
func BenchmarkOptimizerStep(b *testing.B) {
	fc := nn.NewLinear(tensor.NewRNG(5), 2048, 100, true)
	vgg, err := Build("vgg16", tensor.NewRNG(1), 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultPretrainConfig()
	for _, c := range []struct {
		name   string
		params []*nn.Param
		opt    nn.Optimizer
	}{
		{"adam-manifold", fc.Params(), nn.NewAdam(0.002)},
		{"sgd-vgg16", vgg.Full().Params(), nn.NewSGD(cfg.LR, cfg.Momentum, 1e-4)},
	} {
		for i, p := range c.params {
			tensor.NewRNG(int64(10+i)).FillNormal(p.Grad, 0, 1e-3)
		}
		for _, set := range []struct {
			name  string
			force func(testing.TB)
		}{
			{"avx512", func(tb testing.TB) { tensortest.Gemm512(tb, true) }},
			{"avx2", func(tb testing.TB) { tensortest.Gemm512(tb, false) }},
			{"portable", tensortest.Portable},
		} {
			b.Run(c.name+"/"+set.name, func(b *testing.B) {
				set.force(b)
				b.ReportAllocs()
				for range b.N {
					c.opt.Step(c.params)
				}
			})
		}
	}
	params := vgg.Full().Params()
	saved := make([][]float32, len(params))
	var sq float64
	for i, p := range params {
		saved[i] = append([]float32(nil), p.Grad.Data...)
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	a := tensor.NewArena()
	nn.ClipGradNorm(a, params, math.Inf(1)) // sizes the arena's block sums
	a.Grow()
	for _, c := range []struct {
		name    string
		maxNorm float64
	}{{"below", 2 * math.Sqrt(sq)}, {"above", math.Sqrt(sq) / 2}} {
		b.Run("clip-vgg16/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				nn.ClipGradNorm(a, params, c.maxNorm)
				if c.name == "above" {
					b.StopTimer()
					for i, p := range params {
						copy(p.Grad.Data, saved[i])
					}
					b.StartTimer()
				}
			}
		})
	}
}

// stepFixture builds the zoo model (VGG16/4 for the gates), one batch of 32
// normal images with labels cycling over ten classes, and a Trainer with
// Pretrain's optimizer, clipping and augmentation that runs the batch for the
// given number of one-step epochs, calling onEpoch at the end of each.
func stepFixture(tb testing.TB, model string, epochs int, onEpoch func()) (*Model, *tensor.Tensor, []int, *nn.Trainer) {
	const batch = 32
	m, err := Build(model, tensor.NewRNG(1), 10)
	if err != nil {
		tb.Fatal(err)
	}
	x := tensor.New(batch, 3, 32, 32)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}
	cfg := DefaultPretrainConfig()
	tr := &nn.Trainer{Epochs: epochs, BatchSize: batch, Opt: nn.NewSGD(cfg.LR, cfg.Momentum, 1e-4),
		ClipNorm: 5, Augment: dataset.ShiftAugment(4), Log: lineHook(onEpoch)}
	return m, x, labels, tr
}

// lineHook is a Trainer.Log that calls itself once per line written: Fit
// writes one line per epoch.
type lineHook func()

func (f lineHook) Write(p []byte) (int, error) {
	f()
	return len(p), nil
}

// TestFitStepHeap is the training step's allocation gate (make alloc): after
// the first step has sized Fit's arena, a step of each zoo model at batch 32
// takes at most its bytes of heap in at most its allocations. The counts are
// mostly the closures handed to parallel.For. VGG16/4 took 42 MB before the
// arena, when every activation, gradient and workspace was fresh heap.
// MobileNetV2 and EfficientNet-B0 took 349 896 178 and 482 226 952 B a step
// (BenchmarkTrainStep) while nine of their layer types trained on the heap.
// Both bounds sit about 10 % over the steps' 28 536 B / 223, 104 728 B / 798
// and 102 960 B / 773 on two cores (−race: up to 28 720 / 225, 105 296 / 805
// and 104 416 / 790; one core: 13 872 / 135, 49 664 / 465, 49 520 / 441),
// measured once the optimizers and the clip made one fan-out a sweep and the
// dense head's products took their panel buffers from the arena instead of
// the sync.Pool (159 392 B / 305, 241 056 / 988 and 246 456 / 1 216 before;
// 481, 1 554 and 1 630 allocations before For ran its chunks on reused
// Calls; 548, 2 091 and 2 277 before Fit built its parameter list once a
// call; 1 633, 7 038 and 7 781 before Conv2D's tasks held their tensor
// headers and the dense head's column split ran on a prebound Call).
func TestFitStepHeap(t *testing.T) {
	const epochs = 4
	for _, c := range []struct {
		model         string
		bytes, allocs uint64
	}{
		{"vgg16", 31 << 10, 245},
		{"mobilenetv2", 113 << 10, 880},
		{"effnetb0", 111 << 10, 850},
	} {
		t.Run(c.model, func(t *testing.T) {
			var bytes, allocs []uint64 // at the end of each epoch
			m, x, labels, tr := stepFixture(t, c.model, epochs, func() {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				bytes, allocs = append(bytes, ms.TotalAlloc), append(allocs, ms.Mallocs)
			})
			tr.Fit(m.Full(), x, labels, tensor.NewRNG(3))
			steps := uint64(epochs - 2) // the steps after the second, warm from the first
			perStep, allocsPerStep := (bytes[epochs-1]-bytes[1])/steps, (allocs[epochs-1]-allocs[1])/steps
			t.Logf("steady-state Fit step: %d B, %d allocs", perStep, allocsPerStep)
			if perStep > c.bytes {
				t.Errorf("a Fit step takes %d B of heap, more than %d", perStep, c.bytes)
			}
			if allocsPerStep > c.allocs {
				t.Errorf("a Fit step makes %d allocations, more than %d", allocsPerStep, c.allocs)
			}
		})
	}
}
