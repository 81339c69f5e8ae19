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

// The training bits of the amd64 vector kernels, recorded at 0a08d55, where
// every training buffer was fresh heap and the ragged GEMM columns ran in Go:
// FNV-1a 64 of every parameter bit after pretrainBits' three steps, and of
// the teacher logits it then computes. Both widths give the same bits.
const (
	wantParamBits  = 0x763eb1a9b90619be
	wantLogitsBits = 0x4c0e3fc622df0da3
)

// pretrainBits runs three Pretrain steps of the workload's vgg16 (batch 32,
// Pretrain's optimizer, clipping and augmentation) and hashes every parameter
// bit, then hashes the eval-mode logits of 64 test images resumed from cut 8:
// Rest(8) crosses the 16×16, 8×8, 4×4 and 2×2 convs and the head, the last
// with all its columns ragged.
func pretrainBits(t *testing.T) (params, logits uint64) {
	t.Helper()
	train, test := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 10, Train: 96, Test: 64, Size: 32, Noise: 0.3, Seed: 9})
	m, err := Build("vgg16", tensor.NewRNG(72), 10)
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
	cut, err := m.Cut(8)
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := m.Rest(8)
	h.Reset()
	hashFloats(h, nn.PredictLogits(rest, cut.Forward(test.Images, false), 32).Data)
	return params, h.Sum64()
}

func hashFloats(h hash.Hash64, x []float32) {
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

// TestTrainingBitsPinned pins pretrainBits at 512 and at forced 256 bits. A
// change to the training step's memory or to a GEMM kernel that moves any bit
// — a missed clear of an accumulated gradient, a reordered sum — fails here,
// where the per-layer tests compare two paths of the same code. The portable
// build rounds differently (no FMA) and is not pinned.
func TestTrainingBitsPinned(t *testing.T) {
	if tensor.KernelISA() == "portable" {
		t.Skip("the pinned bits are the vector kernels'; the portable twins round differently")
	}
	for _, w := range []struct {
		name string
		on   bool
	}{{"avx512", true}, {"avx2", false}} {
		t.Run(w.name, func(t *testing.T) {
			tensortest.Gemm512(t, w.on)
			params, logits := pretrainBits(t)
			if params != wantParamBits || logits != wantLogitsBits {
				t.Errorf("parameter bits %#016x (want %#016x), logit bits %#016x (want %#016x)", params, uint64(wantParamBits), logits, uint64(wantLogitsBits))
			}
		})
	}
}
