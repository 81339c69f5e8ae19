package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nshd/internal/nn"
	"nshd/internal/tensor"
)

func TestSynthCIFARShapesAndBalance(t *testing.T) {
	cfg := SynthConfig{Classes: 10, Train: 100, Test: 50, Size: 32, Noise: 0.2, Seed: 7}
	train, test := SynthCIFAR(cfg)
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
	if train.Len() != 100 || test.Len() != 50 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	if got := train.SampleShape(); got[0] != 3 || got[1] != 32 || got[2] != 32 {
		t.Fatalf("sample shape %v", got)
	}
	for _, c := range classCounts(train) {
		if c != 10 {
			t.Fatalf("class imbalance: %v", classCounts(train))
		}
	}
}

func TestSynthCIFARDeterministicBySeed(t *testing.T) {
	cfg := SynthConfig{Classes: 4, Train: 16, Test: 8, Size: 16, Noise: 0.2, Seed: 11}
	a, _ := SynthCIFAR(cfg)
	b, _ := SynthCIFAR(cfg)
	for i := range a.Images.Data {
		if a.Images.Data[i] != b.Images.Data[i] {
			t.Fatal("same seed must reproduce identical data")
		}
	}
	cfg.Seed = 12
	c, _ := SynthCIFAR(cfg)
	same := true
	for i := range a.Images.Data {
		if a.Images.Data[i] != c.Images.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestSynthCIFARTrainTestShareTemplates(t *testing.T) {
	// A CNN trained on the train split must beat chance on the *test* split,
	// proving both splits draw from the same class-conditional distribution.
	cfg := SynthConfig{Classes: 4, Train: 160, Test: 80, Size: 16, Noise: 0.15, Seed: 3}
	train, test := SynthCIFAR(cfg)
	train.Normalize()
	test.Normalize()

	rng := tensor.NewRNG(5)
	model := nn.NewSequential("probe",
		nn.NewConv2D(rng, 3, 8, 3, 1, 1, true),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewConv2D(rng, 8, 16, 3, 1, 1, true),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewFlatten(),
		nn.NewLinear(rng, 16*4*4, 4, true),
	)
	tr := &nn.Trainer{Epochs: 10, BatchSize: 32, Opt: nn.NewSGD(0.05, 0.9, 1e-4)}
	tr.Fit(model, train.Images, train.Labels, rng)
	acc := nn.Evaluate(model, test.Images, test.Labels, 32)
	if acc < 0.6 {
		t.Fatalf("CNN test accuracy %v; synthetic classes not learnable", acc)
	}
}

func TestNormalize(t *testing.T) {
	cfg := SynthConfig{Classes: 2, Train: 40, Test: 4, Size: 8, Noise: 0.3, Seed: 9}
	train, _ := SynthCIFAR(cfg)
	means, stds := train.Normalize()
	if len(means) != 3 || len(stds) != 3 {
		t.Fatalf("stats lengths %d/%d", len(means), len(stds))
	}
	// After normalization each channel is ~N(0,1).
	c, hw := 3, 64
	for ch := 0; ch < c; ch++ {
		var s, sq float64
		for i := 0; i < train.Len(); i++ {
			base := (i*c + ch) * hw
			for j := 0; j < hw; j++ {
				v := float64(train.Images.Data[base+j])
				s += v
				sq += v * v
			}
		}
		cnt := float64(train.Len() * hw)
		mean := s / cnt
		std := math.Sqrt(sq/cnt - mean*mean)
		if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("channel %d after normalize: mean=%v std=%v", ch, mean, std)
		}
	}
}

func TestApplyNormalization(t *testing.T) {
	cfg := SynthConfig{Classes: 2, Train: 20, Test: 20, Size: 8, Noise: 0.3, Seed: 10}
	train, test := SynthCIFAR(cfg)
	orig := test.Images.Clone()
	means, stds := train.Normalize()
	test.ApplyNormalization(means, stds)
	// Spot-check the transform.
	hw := 64
	idx := 5
	ch := 1
	base := (idx*3 + ch) * hw
	want := (float64(orig.Data[base]) - means[ch]) / stds[ch]
	if math.Abs(float64(test.Images.Data[base])-want) > 1e-5 {
		t.Fatalf("ApplyNormalization mismatch: %v vs %v", test.Images.Data[base], want)
	}
}

func TestSubsetAndShuffle(t *testing.T) {
	cfg := SynthConfig{Classes: 5, Train: 50, Test: 5, Size: 8, Noise: 0.2, Seed: 13}
	train, _ := SynthCIFAR(cfg)
	sub := train.Subset(20)
	if sub.Len() != 20 {
		t.Fatalf("Subset len %d", sub.Len())
	}
	if sub.Images.Data[0] != train.Images.Data[0] {
		t.Fatal("Subset must share storage")
	}
	// Oversized subset clamps.
	if train.Subset(999).Len() != 50 {
		t.Fatal("oversized Subset must clamp")
	}
	shuf := train.Shuffled(tensor.NewRNG(14))
	if err := shuf.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same multiset of labels.
	a, b := classCounts(train), classCounts(shuf)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffled must preserve label counts")
		}
	}
	// Order actually changed (overwhelmingly likely).
	sameOrder := true
	for i := range train.Labels {
		if train.Labels[i] != shuf.Labels[i] {
			sameOrder = false
			break
		}
	}
	if sameOrder {
		t.Fatal("Shuffled did not change order")
	}
}

func TestCIFAR10RoundTrip(t *testing.T) {
	cfg := SynthConfig{Classes: 10, Train: 12, Test: 2, Size: 32, Noise: 0.2, Seed: 15}
	train, _ := SynthCIFAR(cfg)
	// Rescale into [0,1] for byte quantization.
	lo, hi := slices.Min(train.Images.Data), slices.Max(train.Images.Data)
	for i, v := range train.Images.Data {
		train.Images.Data[i] = (v - lo) / (hi - lo)
	}

	var buf bytes.Buffer
	if err := WriteCIFAR10(train, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "batch.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCIFAR10(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 12 || got.Classes != 10 {
		t.Fatalf("loaded %d samples, %d classes", got.Len(), got.Classes)
	}
	for i := range got.Labels {
		if got.Labels[i] != train.Labels[i] {
			t.Fatal("labels corrupted in round trip")
		}
	}
	// Pixels match within quantization error.
	for i := 0; i < got.Images.Len(); i += 997 {
		if math.Abs(float64(got.Images.Data[i]-train.Images.Data[i])) > 1.0/255+1e-4 {
			t.Fatalf("pixel %d: %v vs %v", i, got.Images.Data[i], train.Images.Data[i])
		}
	}
}

func TestLoadCIFARErrors(t *testing.T) {
	if _, err := LoadCIFAR10(); err == nil {
		t.Fatal("expected error for no paths")
	}
	if _, err := LoadCIFAR10(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("expected error for missing file")
	}
	// Truncated file.
	path := filepath.Join(t.TempDir(), "trunc.bin")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCIFAR10(path); err == nil {
		t.Fatal("expected error for truncated record")
	}
	// Out-of-range label.
	bad := make([]byte, 3073)
	bad[0] = 200
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCIFAR10(path); err == nil {
		t.Fatal("expected error for label out of range")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cfg := SynthConfig{Classes: 3, Train: 9, Test: 3, Size: 8, Noise: 0.2, Seed: 16}
	train, _ := SynthCIFAR(cfg)
	train.Labels[0] = 99
	if err := train.Validate(); err == nil {
		t.Fatal("expected validation error for bad label")
	}
}

// TestShiftPlanesMatchesPerPixel pins ShiftAugment's in-place row moves to
// the per-pixel loop they replaced, which reads a copy of each plane: every
// (dx, dy) in [−4, 4]², on a 3×32×32 sample and an odd 2×5×7 one (shifts as
// wide as the plane included), bit for bit, −0 and NaN pixels among the
// values.
func TestShiftPlanesMatchesPerPixel(t *testing.T) {
	shiftRef := func(x []float32, c, h, w, dx, dy int) {
		tmp := make([]float32, h*w)
		for ch := 0; ch < c; ch++ {
			plane := x[ch*h*w : (ch+1)*h*w]
			copy(tmp, plane)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					sy, sx := y-dy, x-dx
					if sy < 0 || sy >= h || sx < 0 || sx >= w {
						plane[y*w+x] = 0
					} else {
						plane[y*w+x] = tmp[sy*w+sx]
					}
				}
			}
		}
	}
	rng := tensor.NewRNG(9)
	for _, s := range []struct{ c, h, w int }{{3, 32, 32}, {2, 5, 7}} {
		src := tensor.New(s.c, s.h, s.w)
		rng.FillNormal(src, 0, 1)
		src.Data[1] = float32(math.Copysign(0, -1))
		src.Data[2] = float32(math.NaN())
		for dy := -4; dy <= 4; dy++ {
			for dx := -4; dx <= 4; dx++ {
				want := append([]float32(nil), src.Data...)
				shiftRef(want, s.c, s.h, s.w, dx, dy)
				got := append([]float32(nil), src.Data...)
				shiftPlanes(got, s.c, s.h, s.w, dx, dy)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%dx%dx%d shift (%d, %d): element %d is %v, want %v", s.c, s.h, s.w, dx, dy, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// classCounts returns the number of samples per class of d.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Labels {
		counts[y]++
	}
	return counts
}
