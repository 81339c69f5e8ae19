package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor"
)

// convForwardScalar is the forward lattice's oracle: the convolution written
// out tap by tap from its definition, one float64 accumulator per output,
// sharing nothing with the kernels under test (no im2col, no GEMM).
func convForwardScalar(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := (h+2*c.Pad-c.KH)/c.Stride + 1
	outW := (w+2*c.Pad-c.KW)/c.Stride + 1
	y := tensor.New(n, c.OutC, outH, outW)
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					var s float64
					for ic := 0; ic < c.InC; ic++ {
						for kh := 0; kh < c.KH; kh++ {
							ih := oh*c.Stride - c.Pad + kh
							if ih < 0 || ih >= h {
								continue
							}
							for kw := 0; kw < c.KW; kw++ {
								iw := ow*c.Stride - c.Pad + kw
								if iw < 0 || iw >= w {
									continue
								}
								s += float64(x.Data[((i*c.InC+ic)*h+ih)*w+iw]) *
									float64(c.Weight.W.Data[((oc*c.InC+ic)*c.KH+kh)*c.KW+kw])
							}
						}
					}
					if c.useBias {
						s += float64(c.Bias.W.Data[oc])
					}
					y.Data[((i*c.OutC+oc)*outH+oh)*outW+ow] = float32(s)
				}
			}
		}
	}
	return y
}

// TestConv2DForwardShapeLattice checks Forward's chunk rule on every output
// size class (HW from 1 to 1024, ragged and whole-strip, offset form and
// not), both strides and paddings, 1×1 and 3×3 kernels, kdim = 27, output
// channels off the micro-kernel's multiples, with and without bias, and batch
// sizes around the chunk boundary (and the empty batch). For each it requires
// (a) eval-mode Forward bit-identical to ForwardInfer — the contract the
// engine's reference rests on; (b) train mode bit-identical to eval mode
// wherever the rule says a chunk is one sample (offset form, or HW a whole
// number of strips), and everywhere on the portable build, which has one
// kernel for every column; (c) both modes equal to the scalar definition to
// float tolerance, which on the stacked rows is the only reference train mode
// has; (d) bit-identical results from the worker pool and a serial runner.
func TestConv2DForwardShapeLattice(t *testing.T) {
	cases := []struct {
		inC, outC, k, stride, pad, size int
		bias                            bool
		hw                              int
	}{
		{3, 5, 3, 1, 1, 1, true, 1},
		{3, 6, 3, 1, 1, 2, false, 4},
		{4, 7, 3, 2, 1, 4, true, 4},
		{7, 5, 1, 1, 0, 3, true, 9},
		{3, 5, 3, 1, 0, 5, false, 9},
		{3, 9, 3, 2, 1, 8, true, 16},
		{3, 5, 3, 2, 1, 9, true, 25},
		{5, 6, 3, 1, 1, 8, false, 64},
		{3, 5, 3, 2, 1, 30, false, 225},
		{2, 3, 1, 1, 0, 15, true, 225},
		{3, 7, 3, 1, 1, 16, true, 256},
		{2, 5, 1, 1, 0, 16, false, 256},
		{3, 5, 3, 2, 1, 32, true, 256},
		{3, 5, 3, 1, 1, 32, true, 1024},
		{3, 6, 3, 2, 1, 64, false, 1024},
	}
	serial := func(n int, kernel func(lo, hi int)) { kernel(0, n) }
	sameBits := func(name, what string, got, want *tensor.Tensor) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s: %s shape %v, want %v", name, what, got.Shape, want.Shape)
		}
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: %s [%d] = %v, want %v", name, what, i, v, want.Data[i])
			}
		}
	}
	portable := tensor.PanelStripCols(16) == 0
	stacked := 0
	for ci, tc := range cases {
		chunk := convStackChunk(tc.hw)
		for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 33} {
			name := fmt.Sprintf("%dto%d_k%d_s%d_p%d_hw%d_n%d", tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.hw, n)
			conv := NewConv2D(tensor.NewRNG(int64(51+ci)), tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.bias)
			if tc.bias {
				tensor.NewRNG(int64(52+ci)).FillNormal(conv.Bias.W, 0, 1)
			}
			x := randInput(int64(53+n), n, tc.inC, tc.size, tc.size)

			eval := conv.Forward(x, false)
			train := conv.Forward(x, true)
			if got := eval.Shape[2] * eval.Shape[3]; got != tc.hw {
				t.Fatalf("%s: output size %d, case says %d", name, got, tc.hw)
			}

			ar := tensor.NewArena()
			in := ar.Alloc(x.Shape...)
			copy(in.Data, x.Data)
			sameBits(name, "eval Forward vs ForwardInfer", eval, conv.ForwardInfer(in, ar))

			g := conv.geom(tc.size, tc.size)
			if tensor.ConvOffsetForm(g) || tensor.PanelStripCols(tc.hw) == tc.hw || portable {
				sameBits(name, "train vs eval Forward", train, eval)
			} else if n > 1 {
				stacked++
			}

			kdim := float64(tc.inC * tc.k * tc.k)
			tol := math.Max(1e-4, 1e-6*(4+4*math.Sqrt(kdim)))
			want := convForwardScalar(conv, x)
			for i, w := range want.Data {
				if !closeGrad(float64(train.Data[i]), float64(w), tol) {
					t.Fatalf("%s: train Forward[%d] = %v, scalar reference %v", name, i, train.Data[i], w)
				}
				if !closeGrad(float64(eval.Data[i]), float64(w), tol) {
					t.Fatalf("%s: eval Forward[%d] = %v, scalar reference %v", name, i, eval.Data[i], w)
				}
			}

			orig := parallelFor
			parallelFor = serial
			evalS, trainS := conv.Forward(x, false), conv.Forward(x, true)
			parallelFor = orig
			sameBits(name, "eval parallel vs serial", eval, evalS)
			sameBits(name, "train parallel vs serial", train, trainS)
		}
	}
	if stacked == 0 && !portable {
		t.Fatal("no lattice row exercised the stacked product")
	}
}

// BenchmarkConv2DForward times Conv2D.Forward on the five stage shapes of
// VGG16/4 at 32×32 input (the benchmark's `train` workload) at the pretrain
// batch size, in both modes: the first two shapes run in offset form, 8×8
// and 4×4 per sample in either mode, and 2×2 is stacked in train mode only.
func BenchmarkConv2DForward(b *testing.B) {
	const batch = 32
	for _, s := range []struct{ ch, size int }{
		{16, 32}, {32, 16}, {64, 8}, {128, 4}, {128, 2},
	} {
		for _, mode := range []struct {
			name  string
			train bool
		}{{"train", true}, {"eval", false}} {
			b.Run(fmt.Sprintf("%dto%d@%dx%d/%s", s.ch, s.ch, s.size, s.size, mode.name), func(b *testing.B) {
				conv := NewConv2D(tensor.NewRNG(1), s.ch, s.ch, 3, 1, 1, true)
				x := randInput(2, batch, s.ch, s.size, s.size)
				flops := 2 * float64(batch) * float64(s.ch) * float64(s.ch*9) * float64(s.size*s.size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conv.Forward(x, mode.train)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
