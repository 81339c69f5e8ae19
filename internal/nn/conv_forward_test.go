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

// forwardColumns is a chunk rule as the column products of its definition:
// each chunk's im2col materialized (Im2ColWindow), multiplied by
// MatMulSerialInto, copied back per sample, bias added — Forward's chunks
// with stack set, ForwardInfer's single samples without. The offset form's
// bits equal these (tensor.TestConvMulMatchesIm2Col); the rows form must too.
func (c *Conv2D) forwardColumns(x *tensor.Tensor, stack bool) *tensor.Tensor {
	n := x.Shape[0]
	g := c.geom(x.Shape[2], x.Shape[3])
	hw, kdim, sampleIn := g.OutH()*g.OutW(), c.InC*c.KH*c.KW, c.InC*g.InH*g.InW
	y := tensor.New(n, c.OutC, g.OutH(), g.OutW())
	chunk := 1
	if stack && !tensor.ConvOffsetForm(g) && tensor.PanelStripCols(hw) != hw {
		chunk = convStackChunk(hw)
	}
	wmat := c.Weight.W.Reshape(c.OutC, kdim)
	for lo := 0; lo < n; lo += chunk {
		b := min(chunk, n-lo)
		ld := b * hw
		cols, out := tensor.New(kdim, ld), tensor.New(c.OutC, ld)
		for s := 0; s < b; s++ {
			tensor.Im2ColWindow(g, x.Data[(lo+s)*sampleIn:][:sampleIn], cols.Data, ld, s*hw)
		}
		tensor.MatMulSerialInto(out, wmat, cols, make([]float32, tensor.GemmScratch()))
		for s := 0; s < b; s++ {
			for oc := 0; oc < c.OutC; oc++ {
				plane := y.Data[((lo+s)*c.OutC+oc)*hw:][:hw]
				copy(plane, out.Data[oc*ld+s*hw:])
				if c.useBias {
					for j := range plane {
						plane[j] += c.Bias.W.Data[oc]
					}
				}
			}
		}
	}
	return y
}

// TestConv2DForwardShapeLattice checks Forward's chunk rule on every output
// size class (HW from 1 to 1024, ragged and whole-strip, offset form, rows
// form and neither), both strides and paddings, 1×1 and 3×3 kernels,
// kdim = 27, output channels off the micro-kernel's multiples and one, one
// and a half and two strips wide (16, 24, 32), with and without bias, and
// batch sizes around the chunk boundary (and the empty batch), which put
// ForwardInfer's calls on both sides of convInferRows. For each it requires
// (a) ForwardInfer bit-identical to the per-sample column products
// (forwardColumns without stacking), whichever form computed it — the
// contract every eval pass rests on; (b) Forward bit-identical to
// ForwardInfer wherever the rule says a chunk is one sample (offset form, or
// HW a whole number of strips), and everywhere on the portable build, which
// has one kernel for every column; (c) both equal to the scalar definition to
// float tolerance, which on the stacked rows is the only independent
// reference Forward has; (d) Forward bit-identical to the column products of
// its chunk rule; (e) bit-identical Forward results from the worker pool and a
// serial runner.
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
		{8, 16, 3, 1, 1, 1, true, 1},
		{16, 16, 3, 1, 1, 2, true, 4},
		{5, 24, 3, 1, 1, 4, false, 16},
		{8, 32, 3, 2, 1, 8, true, 16},
		{16, 32, 3, 1, 1, 8, true, 64},
		{3, 24, 3, 2, 1, 10, true, 25},
		{4, 16, 3, 1, 1, 16, false, 256},
		{3, 32, 3, 2, 1, 32, true, 256},
		{3, 16, 3, 1, 1, 32, true, 1024},
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

			ar := tensor.NewArena()
			in := ar.Alloc(x.Shape...)
			copy(in.Data, x.Data)
			eval := conv.ForwardInfer(in, ar)
			train := conv.Forward(tensor.NewArena(), x)
			if got := eval.Shape[2] * eval.Shape[3]; got != tc.hw {
				t.Fatalf("%s: output size %d, case says %d", name, got, tc.hw)
			}

			g := conv.geom(tc.size, tc.size)
			if tensor.ConvOffsetForm(g) || tensor.PanelStripCols(tc.hw) == tc.hw || portable {
				sameBits(name, "Forward vs ForwardInfer", train, eval)
			} else if n > 1 {
				stacked++
			}

			sameBits(name, "ForwardInfer vs column products", eval, conv.forwardColumns(x, false))
			sameBits(name, "Forward vs column products", train, conv.forwardColumns(x, true))

			kdim := float64(tc.inC * tc.k * tc.k)
			tol := math.Max(1e-4, 1e-6*(4+4*math.Sqrt(kdim)))
			want := convForwardScalar(conv, x)
			for i, w := range want.Data {
				if !closeGrad(float64(train.Data[i]), float64(w), tol) {
					t.Fatalf("%s: Forward[%d] = %v, scalar reference %v", name, i, train.Data[i], w)
				}
				if !closeGrad(float64(eval.Data[i]), float64(w), tol) {
					t.Fatalf("%s: ForwardInfer[%d] = %v, scalar reference %v", name, i, eval.Data[i], w)
				}
			}

			orig := parallelFor
			parallelFor = serial
			trainS := conv.Forward(tensor.NewArena(), x)
			parallelFor = orig
			sameBits(name, "Forward parallel vs serial", train, trainS)
		}
	}
	if stacked == 0 && !portable {
		t.Fatal("no lattice row exercised the stacked product")
	}
}

// BenchmarkConv2DForward times Conv2D.Forward and ForwardInfer on the five
// stage shapes of VGG16/4 at 32×32 input (the benchmark's `train` workload)
// at the pretrain batch size: the first two shapes run in offset form, the
// others in rows form, and 2×2 is stacked in Forward only.
func BenchmarkConv2DForward(b *testing.B) {
	const batch = 32
	for _, s := range []struct{ ch, size int }{
		{16, 32}, {32, 16}, {64, 8}, {128, 4}, {128, 2},
	} {
		for _, mode := range []string{"train", "infer"} {
			b.Run(fmt.Sprintf("%dto%d@%dx%d/%s", s.ch, s.ch, s.size, s.size, mode), func(b *testing.B) {
				conv := NewConv2D(tensor.NewRNG(1), s.ch, s.ch, 3, 1, 1, true)
				x := randInput(2, batch, s.ch, s.size, s.size)
				ar := tensor.NewArena()
				flops := 2 * float64(batch) * float64(s.ch) * float64(s.ch*9) * float64(s.size*s.size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "train" {
						conv.Forward(tensor.NewArena(), x)
						continue
					}
					ar.Reset()
					conv.ForwardInfer(ar.Wrap(x.Data, x.Shape...), ar)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
