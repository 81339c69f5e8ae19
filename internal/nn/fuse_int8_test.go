package nn

import (
	"math/rand"
	"testing"

	"nshd/internal/tensor"
)

// randomInt8FuseChain builds a random quantization-chained Int8Conv2D[+pool]
// run (optionally flatten-terminated), returning the layers, the input shape
// and the input quantization parameters.
func randomInt8FuseChain(rng *rand.Rand) ([]Int8Layer, []int, float32, uint8) {
	c := 1 + rng.Intn(4)
	h := 6 + rng.Intn(12)
	w := 6 + rng.Intn(12)
	in := []int{c, h, w}
	inScale := 0.02 + rng.Float32()*0.1
	inZero := uint8(rng.Intn(256))
	scale, zero := inScale, inZero
	var layers []Int8Layer
	nUnits := 1 + rng.Intn(3)
	for u := 0; u < nUnits; u++ {
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		outC := 1 + rng.Intn(12)
		g := tensor.ConvGeom{InC: c, InH: h, InW: w, KH: k, KW: k,
			StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
		if g.Validate() != nil {
			k, stride, pad = 1, 1, 0
			g = tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
		}
		kdim := c * k * k
		wq := make([]int8, outC*kdim)
		for i := range wq {
			wq[i] = int8(rng.Intn(255) - 127)
		}
		bias := make([]int32, outC)
		scales := make([]float32, outC)
		for i := range bias {
			bias[i] = int32(rng.Intn(2048) - 1024)
			scales[i] = 0.001 + rng.Float32()*0.01
		}
		outScale := 0.02 + rng.Float32()*0.1
		outZero := uint8(rng.Intn(256))
		q := Int8Quant{InScale: scale, InZero: zero, OutScale: outScale, OutZero: outZero,
			ClampLo: 0, ClampHi: 255}
		if rng.Intn(2) == 0 { // folded ReLU-style clamp
			q.ClampLo = outZero
		}
		layers = append(layers, NewInt8Conv2D(c, outC, k, k, stride, pad, wq, bias, scales, q))
		c, h, w = outC, g.OutH(), g.OutW()
		scale, zero = outScale, outZero
		if pk := 2 + rng.Intn(2); rng.Intn(2) == 0 && h/pk > 0 && w/pk > 0 {
			layers = append(layers, &Int8MaxPool2D{K: pk})
			h, w = h/pk, w/pk
		}
	}
	if rng.Intn(2) == 0 {
		layers = append(layers, Int8Flatten{})
	}
	return layers, in, inScale, inZero
}

func runInt8Chain(ls []Int8Layer, x *tensor.QTensor, ar *tensor.Arena) *tensor.QTensor {
	for _, l := range ls {
		x = l.ForwardInt8(x, ar)
	}
	return x
}

// TestInt8FusedBlockMatchesUnfused pins the tiled int8 executor bit-identical
// to the layer-by-layer int8 pass across randomized chains and overridden
// tiny tile heights.
func TestInt8FusedBlockMatchesUnfused(t *testing.T) {
	lowerFuseGate(t)
	rng := rand.New(rand.NewSource(71))
	fusedTrials := 0
	for trial := 0; trial < 48; trial++ {
		layers, in, scale, zero := randomInt8FuseChain(rng)
		fused := FuseInt8(layers, in[0], in[1], in[2])
		convs, pools := 0, 0
		for _, l := range layers {
			switch l.(type) {
			case *Int8Conv2D:
				convs++
			case *Int8MaxPool2D:
				pools++
			}
		}
		if convs == 1 && pools == 0 {
			// The one shape the planner leaves unfused at any size.
			if len(fused) != len(layers) {
				t.Fatalf("trial %d: a single pool-less int8 conv must stay unfused", trial)
			}
			continue
		}
		fusedTrials++
		hasBlock := false
		for _, l := range fused {
			if _, ok := l.(*Int8FusedBlock); ok {
				hasBlock = true
			}
		}
		if !hasBlock {
			t.Fatalf("trial %d: no Int8FusedBlock in fused chain", trial)
		}

		saved := fuseTileRowsOverride
		fuseTileRowsOverride = 1 + rng.Intn(3)
		tiny := FuseInt8(layers, in[0], in[1], in[2])
		fuseTileRowsOverride = saved

		runInt8BitCompare(t, rng, layers, in, scale, zero, 1+rng.Intn(2),
			map[string][]Int8Layer{"whole-map": fused, "tiny-tiles": tiny})
	}
	if fusedTrials < 30 {
		t.Fatalf("only %d of 48 random int8 chains fused; the property is under-sampled", fusedTrials)
	}

	// The planner's own multi-tile grid (see vgg96Chain), one sample and three.
	layers, in, scale, zero := vgg96Int8Chain(rng)
	fused := FuseInt8(layers, in[0], in[1], in[2])
	checkVGG96Grid(t, fused[0].(*Int8FusedBlock).Grid())
	for _, n := range []int{1, 3} {
		runInt8BitCompare(t, rng, layers, in, scale, zero, n, map[string][]Int8Layer{"96x96 grid": fused})
	}
}

// vgg96Int8Chain is vgg96Chain's quantized twin: the same four convs and
// pool, quantization chained, weights random.
func vgg96Int8Chain(rng *rand.Rand) ([]Int8Layer, []int, float32, uint8) {
	const inScale, inZero = float32(0.05), uint8(128)
	scale, zero := inScale, inZero
	var layers []Int8Layer
	for i, ch := range [][2]int{{3, 16}, {16, 16}, {16, 32}, {32, 32}} {
		wq := make([]int8, ch[1]*ch[0]*9)
		for j := range wq {
			wq[j] = int8(rng.Intn(255) - 127)
		}
		bias, scales := make([]int32, ch[1]), make([]float32, ch[1])
		for j := range bias {
			bias[j], scales[j] = int32(rng.Intn(2048)-1024), 0.0005+rng.Float32()*0.001
		}
		q := Int8Quant{InScale: scale, InZero: zero, OutScale: 0.02 + rng.Float32()*0.1, OutZero: uint8(rng.Intn(64)), ClampHi: 255}
		q.ClampLo = q.OutZero // folded ReLU
		layers = append(layers, NewInt8Conv2D(ch[0], ch[1], 3, 3, 1, 1, wq, bias, scales, q))
		scale, zero = q.OutScale, q.OutZero
		if i == 1 {
			layers = append(layers, &Int8MaxPool2D{K: 2})
		}
	}
	return layers, []int{3, 96, 96}, inScale, inZero
}

// runInt8BitCompare runs the unfused layers and each fused chain on the same
// random n-sample input and fails on the first differing output byte.
func runInt8BitCompare(t *testing.T, rng *rand.Rand, layers []Int8Layer, in []int, scale float32, zero uint8, n int, chains map[string][]Int8Layer) {
	t.Helper()
	x := make([]uint8, n*in[0]*in[1]*in[2])
	rng.Read(x)
	ar := tensor.NewArena()
	xa := ar.WrapU8(append([]uint8(nil), x...), scale, zero, n, in[0], in[1], in[2])
	want := runInt8Chain(layers, xa, ar)
	for name, chain := range chains {
		ar2 := tensor.NewArena()
		xb := ar2.WrapU8(append([]uint8(nil), x...), scale, zero, n, in[0], in[1], in[2])
		got := runInt8Chain(chain, xb, ar2)
		if !sameInts(got.Shape, want.Shape) {
			t.Fatalf("%s: shape %v, want %v", name, got.Shape, want.Shape)
		}
		if got.Scale != want.Scale || got.Zero != want.Zero {
			t.Fatalf("%s: quant (%g,%d), want (%g,%d)", name, got.Scale, got.Zero, want.Scale, want.Zero)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: fused[%d]=%d, unfused=%d", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
