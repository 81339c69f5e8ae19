package cnn

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"nshd/internal/dataset"
	"nshd/internal/nn"
	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// The training bits of the amd64 vector kernels: FNV-1a 64 of every parameter
// bit after pretrainBits' three steps, and of the teacher logits it then
// computes. Both widths give the same bits. vgg16's were recorded at 0a08d55,
// where every training buffer was fresh heap and the ragged GEMM columns ran
// in Go; mobilenetv2's and effnetb0's at 5812627, before the HD joint loop and
// the optimizers moved onto vector kernels.
var trainingPins = []struct {
	model          string
	cut            int
	params, logits uint64
}{
	{"vgg16", 8, 0x763eb1a9b90619be, 0x4c0e3fc622df0da3},
	{"mobilenetv2", 14, 0x4180cce9dd0e87af, 0xe5395cdeddfeeafc},
	{"effnetb0", 6, 0xe5e6105a34882127, 0xac5d95ef101c469c},
}

// pretrainBits runs three Pretrain steps of model (batch 32, Pretrain's
// optimizer, clipping and augmentation) and hashes every parameter bit, then
// hashes the eval logits of 64 test images resumed from cut. For vgg16, Rest(8)
// crosses the 16×16, 8×8, 4×4 and 2×2 convs and the head, the last with all
// its columns ragged; mobilenetv2 and effnetb0 add BatchNorm, depthwise,
// ReLU6, SiLU, Sigmoid, squeeze-excitation and residual layers.
func pretrainBits(t *testing.T, model string, cutAt int) (params, logits uint64) {
	t.Helper()
	train, test := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 10, Train: 96, Test: 64, Size: 32, Noise: 0.3, Seed: 9})
	m, err := Build(model, tensor.NewRNG(72), 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPretrainConfig()
	cfg.Epochs = 1
	if _, _, err := Pretrain(m, train, cfg, tensor.NewRNG(74)); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range m.Full().Params() {
		hashFloats(h, p.W.Data)
	}
	params = h.Sum64()
	cut, err := m.Cut(cutAt)
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := m.Rest(cutAt)
	h.Reset()
	hashFloats(h, nn.PredictLogits(rest, nn.Infer(cut, test.Images, 32), 32).Data)
	return params, h.Sum64()
}

func hashFloats(h hash.Hash64, x []float32) {
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

// TestTrainingBitsPinned pins pretrainBits at 512 and at forced 256 bits for
// every model of trainingPins, and trainingBitsVersion, which names cached
// teachers, to the pins. A change to the training step's memory, to a
// GEMM kernel or to an optimizer kernel that moves any bit — a missed clear of
// an accumulated gradient, a reordered sum — fails here, where the per-layer
// tests compare two paths of the same code. The portable build rounds
// differently (no FMA) and is not pinned. The vector kernels need FMA, and so
// does math.Exp's fast path (math/exp_asm.go), which SiLU and Sigmoid reach:
// on a CPU without FMA the mobilenetv2 and effnetb0 bits would differ anyway.
func TestTrainingBitsPinned(t *testing.T) {
	h := fnv.New64a()
	for _, pin := range trainingPins {
		h.Write([]byte(pin.model))
		binary.Write(h, binary.LittleEndian, [3]uint64{uint64(pin.cut), pin.params, pin.logits})
	}
	if h.Sum64() != trainingBitsVersion {
		t.Fatalf("the pins hash to %#016x, trainingBitsVersion is %#016x: re-pinning changes the training bits, so it must change the version too", h.Sum64(), trainingBitsVersion)
	}
	if tensor.KernelISA() == "portable" {
		t.Skip("the pinned bits are the vector kernels' and math.Exp's FMA path; the portable twins round differently")
	}
	for _, w := range []struct {
		name string
		on   bool
	}{{"avx512", true}, {"avx2", false}} {
		t.Run(w.name, func(t *testing.T) {
			tensortest.Gemm512(t, w.on)
			for _, pin := range trainingPins {
				t.Run(pin.model, func(t *testing.T) {
					params, logits := pretrainBits(t, pin.model, pin.cut)
					if params != pin.params || logits != pin.logits {
						t.Errorf("parameter bits %#016x (want %#016x), logit bits %#016x (want %#016x)", params, pin.params, logits, pin.logits)
					}
				})
			}
		})
	}
}
