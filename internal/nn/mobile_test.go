package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// The inverted-residual layers' serving paths — the depthwise plane kernel,
// the 1×1 conv reading its input in place, the BN epilogue after both —
// against references that share none of their code, on degenerate shapes and
// hostile pixels, at every kernel width this machine has.

// convChannel is the depthwise convolution's definition for one channel: one
// float32 accumulator per output from +0, the in-image taps only, kh-major,
// kw-minor, each product converted (so rounded: no build may fuse it into the
// add) before it is added.
func (d *DepthwiseConv2D) convChannel(g tensor.ConvGeom, src, ker, dst []float32) {
	outW := g.OutW()
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < outW; ow++ {
			var s float32
			for kh := 0; kh < d.KH; kh++ {
				ih := oh*d.Stride - d.Pad + kh
				if ih < 0 || ih >= g.InH {
					continue
				}
				for kw := 0; kw < d.KW; kw++ {
					iw := ow*d.Stride - d.Pad + kw
					if iw < 0 || iw >= g.InW {
						continue
					}
					s += float32(src[ih*g.InW+iw] * ker[kh*d.KW+kw])
				}
			}
			dst[oh*outW+ow] = s
		}
	}
}

// forwardReference is DepthwiseConv2D's forward pass through convChannel.
func (d *DepthwiseConv2D) forwardReference(x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	g := d.geom(h, w)
	y := tensor.New(n, d.C, g.OutH(), g.OutW())
	in, out, taps := h*w, g.OutH()*g.OutW(), d.KH*d.KW
	for p := 0; p < n*d.C; p++ {
		ch := p % d.C
		d.convChannel(g, x.Data[p*in:][:in], d.Weight.W.Data[ch*taps:][:taps], y.Data[p*out:][:out])
	}
	return y
}

// hostileSpecials are the pixels on which a vector kernel could part ways
// with the scalar definition: NaN, ±Inf, ±0, subnormals (the smallest of
// each sign and the largest), and values big enough to overflow a product.
var hostileSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007FFFFF),
	3e38, -3e38,
}

// hostileInput is a normal(0, 1) tensor with a fifth of its elements
// replaced by hostileSpecials.
func hostileInput(seed int64, shape ...int) *tensor.Tensor {
	x := randInput(seed, shape...)
	rng := rand.New(rand.NewSource(seed))
	for i := range x.Data {
		if rng.Intn(5) == 0 {
			x.Data[i] = hostileSpecials[rng.Intn(len(hostileSpecials))]
		}
	}
	return x
}

// sameOrBothNaN compares by bits, except that any NaN equals any NaN: where
// an add meets two NaNs (a NaN pixel and the NaN of Inf − Inf, say) which
// payload survives depends on the order of the add's operands, which Go does
// not fix for a scalar add.
func sameOrBothNaN(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// sameBits compares two tensors by bits; nanClass relaxes NaN payloads as
// sameOrBothNaN does.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor, nanClass bool) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, v := range got.Data {
		w := want.Data[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(nanClass && sameOrBothNaN(v, w)) {
			t.Fatalf("%s: [%d] = %08x (%v), want %08x (%v)", what, i, math.Float32bits(v), v, math.Float32bits(w), w)
		}
	}
}

// atEveryWidth runs body as subtests at 512 bits, at 256 bits and on the Go
// twins, skipping what this machine lacks.
func atEveryWidth(t *testing.T, body func(t *testing.T)) {
	for _, w := range []struct {
		name string
		set  func(testing.TB)
	}{
		{"avx512", func(tb testing.TB) { tensortest.Gemm512(tb, true) }},
		{"avx2", func(tb testing.TB) { tensortest.Gemm512(tb, false) }},
		{"portable", tensortest.Portable},
	} {
		t.Run(w.name, func(t *testing.T) {
			w.set(t)
			body(t)
		})
	}
}

// inferPoisoned runs l.ForwardInfer on a copy of x in a frozen arena whose
// slab was filled with NaN first, as an engine's arena holds the previous
// call's activations: scratch a layer forgets to clear shows in the result.
func inferPoisoned(l Layer, x *tensor.Tensor) *tensor.Tensor {
	ar := tensor.NewArena()
	l.ForwardInfer(ar.Alloc(x.Shape...), ar)
	ar.Freeze()
	ar.Reset()
	for i, junk := 0, ar.Floats(ar.PeakFloats()); i < len(junk); i++ {
		junk[i] = float32(math.NaN())
	}
	ar.Reset()
	in := ar.Alloc(x.Shape...)
	copy(in.Data, x.Data)
	return l.ForwardInfer(in, ar)
}

// mobileLatticeMaps are the degenerate and ragged maps of the lattice: widths
// around the 8- and 16-wide vector steps, maps narrower than the kernel.
var mobileLatticeMaps = struct{ ws, hs []int }{
	ws: []int{1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 48},
	hs: []int{1, 2, 3, 5},
}

// TestDepthwiseMatchesDefinition: DepthwiseConv2D's ForwardInfer and Forward
// equal convChannel on every geometry of the lattice — both strides, pads 0–2, 3×3 and 5×5 kernels, one and eight channels, two
// samples — on hostile pixels and finite weights (the plane kernel's
// contract; tensor.DepthwisePlane).
func TestDepthwiseMatchesDefinition(t *testing.T) {
	atEveryWidth(t, func(t *testing.T) {
		cases := 0
		for _, k := range []int{3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					for _, c := range []int{1, 8} {
						for _, h := range mobileLatticeMaps.hs {
							for _, w := range mobileLatticeMaps.ws {
								d := NewDepthwiseConv2D(tensor.NewRNG(int64(k*stride+pad)), c, k, stride, pad)
								if d.geom(h, w).Validate() != nil {
									continue
								}
								cases++
								name := fmt.Sprintf("k%d s%d p%d c%d %dx%d", k, stride, pad, c, h, w)
								x := hostileInput(int64(h*100+w), 2, c, h, w)
								want := d.forwardReference(x)
								sameBits(t, name+" ForwardInfer", inferPoisoned(d, x), want, true)
								sameBits(t, name+" Forward", d.Forward(tensor.NewArena(), x), want, true)
							}
						}
					}
				}
			}
		}
		if cases < 500 {
			t.Fatalf("only %d lattice geometries are valid", cases)
		}
	})
}

// TestPointwiseInPlaceMatchesPacked: a 1×1 conv's ForwardInfer — which reads
// its [InC, HW] input in place up to tensor's row gate — equals the packed
// product. The reference is MatMulSerialInto of the same input by the weights
// stacked over 64 more zero rows, which no gate reads in place; every output
// row's chain is the same in any row group, so its first OutC rows are the
// bits of the packed OutC-row product. Maps of the lattice, hostile pixels,
// output channels on both sides of the row groups.
func TestPointwiseInPlaceMatchesPacked(t *testing.T) {
	atEveryWidth(t, func(t *testing.T) {
		for _, inC := range []int{1, 8, 37} {
			for _, outC := range []int{1, 4, 8, 17, 24, 32} {
				conv := NewConv2D(tensor.NewRNG(int64(inC*outC)), inC, outC, 1, 1, 0, false)
				tall := tensor.New(outC+64, inC)
				copy(tall.Data, conv.Weight.W.Data)
				for _, h := range mobileLatticeMaps.hs {
					for _, w := range mobileLatticeMaps.ws {
						name := fmt.Sprintf("%dto%d %dx%d", inC, outC, h, w)
						x := hostileInput(int64(h*100+w), 2, inC, h, w)
						want := tensor.New(2, outC, h, w)
						out := tensor.New(outC+64, h*w)
						scratch := make([]float32, tensor.GemmScratch())
						for i := 0; i < 2; i++ {
							tensor.MatMulSerialInto(out, tall, tensor.FromSlice(x.Data[i*inC*h*w:][:inC*h*w], inC, h*w), scratch)
							copy(want.Data[i*outC*h*w:], out.Data[:outC*h*w])
						}
						sameBits(t, name+" ForwardInfer", inferPoisoned(conv, x), want, false)
					}
				}
			}
		}
	})
}

// TestConvBNEpilogueMatchesSeparate: the conv-led triple of
// forwardInferSteps' peephole — a depthwise, a 1×1 and a 3×3 conv (with a
// bias) followed by BatchNorm2D and ReLU6, ReLU or nothing — equals the three
// layers run one after another, on the lattice's maps and hostile pixels.
// Same kernels, same per-element arithmetic: bits, NaN payloads included. A
// BN over the wrong channel count is not folded.
func TestConvBNEpilogueMatchesSeparate(t *testing.T) {
	atEveryWidth(t, func(t *testing.T) {
		rng := tensor.NewRNG(91)
		bn := NewBatchNorm2D(8)
		rng.FillUniform(bn.RunMean, -0.5, 0.5)
		rng.FillUniform(bn.RunVar, 0.5, 2)
		rng.FillUniform(bn.Gamma.W, -1.5, 1.5)
		rng.FillUniform(bn.Beta.W, -0.2, 0.2)
		biased := NewConv2D(rng, 5, 8, 3, 1, 1, true)
		rng.FillNormal(biased.Bias.W, 0, 1)
		convs := []Layer{
			NewDepthwiseConv2D(rng, 8, 3, 1, 1),
			NewDepthwiseConv2D(rng, 8, 3, 2, 1),
			NewConv2D(rng, 5, 8, 1, 1, 0, false),
			biased,
		}
		for _, conv := range convs {
			c := 8
			if cv, ok := conv.(*Conv2D); ok {
				c = cv.InC
			}
			for _, act := range []Layer{NewReLU6(), NewReLU(), nil} {
				layers := []Layer{conv, bn}
				if act != nil {
					layers = append(layers, act)
				}
				seq := NewSequential("triple", layers...)
				for _, h := range mobileLatticeMaps.hs {
					for _, w := range mobileLatticeMaps.ws {
						name := fmt.Sprintf("%s %v %dx%d", conv.Name(), layers[len(layers)-1].Name(), h, w)
						x := hostileInput(int64(h*100+w), 3, c, h, w)
						ar := tensor.NewArena()
						want := ar.Alloc(x.Shape...)
						copy(want.Data, x.Data)
						for _, l := range layers {
							want = l.ForwardInfer(want, ar)
						}
						in := ar.Alloc(x.Shape...)
						copy(in.Data, x.Data)
						var steps []string
						got := seq.ForwardInferTimed(in, ar, func(name string, _ float64) { steps = append(steps, name) })
						sameBits(t, name, got, want, false)
						if len(steps) != 1 {
							t.Fatalf("%s: steps %q, want the triple folded into one", name, steps)
						}
					}
				}
			}
		}
		// A BN over another channel count is left to panic on its own.
		seq := NewSequential("mismatch", NewDepthwiseConv2D(rng, 4, 3, 1, 1), bn)
		defer func() {
			if recover() == nil {
				t.Fatal("a BatchNorm2D(8) after a 4-channel conv did not panic")
			}
		}()
		seq.ForwardInfer(randInput(1, 1, 4, 5, 5), tensor.NewArena())
	})
}

// benchServedStep times seq.ForwardInfer — one conv with its BatchNorm2D
// (and activation) folded in, the step the engine runs — on n samples of
// [c, h, w] in a frozen arena, at both kernel widths, reporting GFLOP/s over
// the conv's MACs. The step only reads its input, so x is passed as is.
func benchServedStep(b *testing.B, name string, seq *Sequential, n, c, h, w int) {
	x := randInput(3, n, c, h, w)
	ar := tensor.NewArena()
	seq.ForwardInfer(x, ar)
	ar.Freeze()
	macs := seq.Layers[0].Stats([]int{c, h, w}).MACs * int64(n)
	tensortest.BenchWidths(b, name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar.Reset()
			seq.ForwardInfer(x, ar)
		}
		b.ReportMetric(2*float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
	})
}

// mobileBenchShapes are the inverted-residual shapes the two benchmarks run
// at 64 samples: the offline_tail workload's block (mobilenetv2 cut 1,
// invres(8→4,s1,t1) at 32×32) and two of mobilenetv2@14's, an 8×8 map (units
// 11–13: 96 hidden channels, projected to 24) and a stride-2 block (unit 4:
// 36 hidden channels from 32×32 to 16×16, projected to 8).
var mobileBenchShapes = []struct {
	name                string
	c, hw, stride, outC int
}{
	{"offline_tail", 8, 32, 1, 4},
	{"m14_8x8", 96, 8, 1, 24},
	{"m14_s2", 36, 32, 2, 8},
}

// BenchmarkDepthwiseInfer times the depthwise 3×3 with its BatchNorm2D and
// ReLU6 folded in.
func BenchmarkDepthwiseInfer(b *testing.B) {
	rng := tensor.NewRNG(5)
	for _, s := range mobileBenchShapes {
		seq := NewSequential("dw", NewDepthwiseConv2D(rng, s.c, 3, s.stride, 1), NewBatchNorm2D(s.c), NewReLU6())
		benchServedStep(b, fmt.Sprintf("%s/%d@%dx%ds%d", s.name, s.c, s.hw, s.hw, s.stride), seq, 64, s.c, s.hw, s.hw)
	}
}

// BenchmarkPointwiseInfer times the 1×1 projection with its BatchNorm2D
// folded in, on the depthwise's output map.
func BenchmarkPointwiseInfer(b *testing.B) {
	rng := tensor.NewRNG(6)
	for _, s := range mobileBenchShapes {
		hw := s.hw / s.stride
		seq := NewSequential("pw", NewConv2D(rng, s.c, s.outC, 1, 1, 0, false), NewBatchNorm2D(s.outC))
		benchServedStep(b, fmt.Sprintf("%s/%dto%d@%dx%d", s.name, s.c, s.outC, hw, hw), seq, 64, s.c, hw, hw)
	}
}
