package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// convBackwardGrads runs one Backward (or the scalar reference) from zeroed
// gradients and returns copies of dW, db (nil without bias) and dx.
func convBackwardGrads(c *Conv2D, grad *tensor.Tensor, backward func(*tensor.Tensor) *tensor.Tensor) (dw, db, dx *tensor.Tensor) {
	for _, p := range c.Params() {
		p.ZeroGrad()
	}
	dx = backward(grad)
	dw = c.Weight.Grad.Clone()
	if c.useBias {
		db = c.Bias.Grad.Clone()
	}
	return dw, db, dx
}

// TestConv2DBackwardShapeLattice checks Backward on every output size class of
// the chunk-size rule (HW from 1 to 1024), both strides and paddings, 1×1 and
// 3×3 kernels, kdim = 27 (one full panel strip plus a ragged one), output
// channels off the micro-kernel's multiples and one, one and a half and two
// strips wide (16, 24, 32), with and without bias, and batch sizes around the
// chunk boundary (and the empty batch). For each it requires (a) dW, db, dx
// equal to the seed's scalar BackwardReference to float tolerance, (b)
// bit-identical results from the worker pool and from a serial runner over
// the same chunk list, (c) bit-identical results to the column products the
// in-place ones replaced (backwardColumns), and (d) the params-only pass
// Fit runs on a first layer giving the same dW and db bits.
func TestConv2DBackwardShapeLattice(t *testing.T) {
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
		{3, 5, 3, 2, 1, 30, false, 225},
		{2, 3, 1, 1, 0, 15, true, 225},
		{3, 7, 3, 1, 1, 16, true, 256},
		{2, 5, 1, 1, 0, 16, false, 256},
		{3, 5, 3, 2, 1, 32, true, 256},
		{3, 5, 3, 1, 1, 32, true, 1024},
		{8, 16, 3, 1, 1, 1, true, 1},
		{16, 16, 3, 1, 1, 2, true, 4},
		{5, 24, 3, 1, 1, 4, false, 16},
		{8, 32, 3, 2, 1, 8, true, 16},
		{16, 32, 3, 1, 1, 8, true, 64},
		{3, 24, 3, 2, 1, 10, true, 25},
		{4, 16, 3, 1, 1, 16, false, 256},
		{3, 16, 3, 1, 1, 32, true, 1024},
	}
	serial := func(n int, kernel func(lo, hi int)) { kernel(0, n) }
	for ci, tc := range cases {
		chunk := convStackChunk(tc.hw)
		for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 33} {
			name := fmt.Sprintf("%dto%d_k%d_s%d_p%d_hw%d_n%d", tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.hw, n)
			conv := NewConv2D(tensor.NewRNG(int64(41+ci)), tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.bias)
			x := randInput(int64(42+n), n, tc.inC, tc.size, tc.size)
			y := conv.Forward(tensor.NewArena(), x)
			if got := y.Shape[2] * y.Shape[3]; got != tc.hw {
				t.Fatalf("%s: output size %d, case says %d", name, got, tc.hw)
			}
			grad := randInput(43, y.Shape...)
			// The existing 1e-4, widened by the GEMM tests' O(√K·ε) bound once
			// the reduction over N·HW terms is long enough for the float32
			// summation order (scalar linear vs blocked, fused) to show.
			tol := math.Max(1e-4, 1e-6*(4+4*math.Sqrt(float64(n*tc.hw))))

			backward := func(g *tensor.Tensor) *tensor.Tensor { return conv.Backward(tensor.NewArena(), g) }
			dw, db, dx := convBackwardGrads(conv, grad, backward)
			orig := parallelFor
			parallelFor = serial
			dwS, dbS, dxS := convBackwardGrads(conv, grad, backward)
			parallelFor = orig
			dwR, dbR, dxR := convBackwardGrads(conv, grad, conv.BackwardReference)
			dwC, dbC, dxC := convBackwardGrads(conv, grad, conv.backwardColumns)
			dwP, dbP, _ := convBackwardGrads(conv, grad, func(g *tensor.Tensor) *tensor.Tensor {
				conv.BackwardParams(tensor.NewArena(), g)
				return nil
			})
			for _, cmp := range []struct {
				what      string
				got, want *tensor.Tensor
			}{{"dW", dw, dwC}, {"db", db, dbC}, {"dx", dx, dxC}, {"params-only dW", dwP, dw}, {"params-only db", dbP, db}} {
				if cmp.got == nil {
					continue
				}
				if i := firstBitsDiffer(cmp.got.Data, cmp.want.Data); i >= 0 {
					t.Fatalf("%s: %s[%d] = %v, want %v", name, cmp.what, i, cmp.got.Data[i], cmp.want.Data[i])
				}
			}

			for _, cmp := range []struct {
				what           string
				got, ser, want *tensor.Tensor
			}{{"dW", dw, dwS, dwR}, {"db", db, dbS, dbR}, {"dx", dx, dxS, dxR}} {
				if cmp.got == nil {
					continue
				}
				for i, v := range cmp.got.Data {
					if math.Float32bits(v) != math.Float32bits(cmp.ser.Data[i]) {
						t.Fatalf("%s: %s[%d] parallel %v != serial %v", name, cmp.what, i, v, cmp.ser.Data[i])
					}
					if !closeGrad(float64(v), float64(cmp.want.Data[i]), tol) {
						t.Fatalf("%s: %s[%d] = %v, reference %v", name, cmp.what, i, v, cmp.want.Data[i])
					}
				}
			}
		}
	}
}

// TestConv2DSmallMapGradients is the finite-difference check at HW = 4 with a
// batch that crosses the 16-sample chunk boundary: the deep-layer shape whose
// GEMMs exist only in stacked form.
func TestConv2DSmallMapGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	gradCheck(t, NewConv2D(rng, 3, 5, 3, 1, 1, true), randInput(7, 17, 3, 2, 2), 2e-2)
}

// BenchmarkConv2DBackward times Conv2D.Backward on the five stage shapes of
// VGG16/4 at 32×32 input (the benchmark's `train` workload) at the pretrain
// batch size, so a change to the training GEMMs shows at kernel scope. The
// flop count is the two GEMM-shaped products: dWᵀ += cols·Gᵀ and dcols = Wᵀ·G.
func BenchmarkConv2DBackward(b *testing.B) {
	const batch = 32
	for _, s := range []struct{ ch, size int }{
		{16, 32}, {32, 16}, {64, 8}, {128, 4}, {128, 2},
	} {
		b.Run(fmt.Sprintf("%dto%d@%dx%d", s.ch, s.ch, s.size, s.size), func(b *testing.B) {
			conv := NewConv2D(tensor.NewRNG(1), s.ch, s.ch, 3, 1, 1, true)
			x := randInput(2, batch, s.ch, s.size, s.size)
			ar := tensor.NewArena()
			y := conv.Forward(tensor.NewArena(), x)
			grad := randInput(3, y.Shape...)
			conv.Backward(ar, grad)
			ar.Grow()
			flops := 4 * float64(batch) * float64(s.ch) * float64(s.ch*9) * float64(s.size*s.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				conv.Backward(ar, grad)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// firstBitsDiffer returns the first index at which x and y differ as bit
// patterns, or -1.
func firstBitsDiffer(x, y []float32) int {
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return i
		}
	}
	return -1
}

// backwardColumns is Backward as the column products it replaced, the
// reference its in-place products must equal bit for bit: every chunk
// stacked, its im2col materialized (Im2ColWindow), dWᵀ += cols·Gᵀ on
// MatMulAccTSerialInto, dcols = Wᵀ·G on MatMulSerialInto against the
// transposed weights, db one chain per channel, and the chunk accumulators
// merged in chunk order. Where Backward walks a chunk sample by sample (HW a
// whole number of K blocks) the stacked sum is the same K-block sequence, so
// the bits agree there too.
func (c *Conv2D) backwardColumns(grad *tensor.Tensor) *tensor.Tensor {
	x := c.cachedX
	n := x.Shape[0]
	g := c.geom(x.Shape[2], x.Shape[3])
	hw, kdim, sampleIn := g.OutH()*g.OutW(), c.InC*c.KH*c.KW, c.InC*g.InH*g.InW
	dx := tensor.New(x.Shape...)
	wmatT := tensor.Transpose(c.Weight.W.Reshape(c.OutC, kdim))
	chunk := convStackChunk(hw)
	var dwT *tensor.Tensor
	gemmBuf := make([]float32, tensor.GemmScratch())
	for lo := 0; lo < n; lo += chunk {
		b := min(chunk, n-lo)
		ld := b * hw
		gmat, cols, dcols := tensor.New(c.OutC, ld), tensor.New(kdim, ld), tensor.New(kdim, ld)
		for s := 0; s < b; s++ {
			for oc := 0; oc < c.OutC; oc++ {
				copy(gmat.Data[oc*ld+s*hw:][:hw], grad.Data[((lo+s)*c.OutC+oc)*hw:])
			}
			tensor.Im2ColWindow(g, x.Data[(lo+s)*sampleIn:][:sampleIn], cols.Data, ld, s*hw)
		}
		acc := tensor.New(kdim, c.OutC)
		tensor.MatMulAccTSerialInto(acc, cols, gmat, gemmBuf)
		if dwT == nil {
			dwT = acc
		} else {
			tensor.Accumulate(dwT.Data, acc.Data)
		}
		if c.useBias {
			db := make([]float32, c.OutC)
			for oc := range db {
				for _, v := range gmat.Row(oc) {
					db[oc] += v
				}
			}
			tensor.Accumulate(c.Bias.Grad.Data, db)
		}
		tensor.MatMulSerialInto(dcols, wmatT, gmat, gemmBuf)
		tensor.Col2ImWindow(g, dcols.Data, ld, b, dx.Data[lo*sampleIn:][:b*sampleIn])
	}
	if dwT != nil {
		tensor.Accumulate(c.Weight.Grad.Data, tensor.Transpose(dwT).Data)
	}
	return dx
}

// BackwardReference is the seed repository's Conv2D backward pass — scalar
// per-element Dot loops for dW and one pool-dispatched GEMM per sample for
// dcols — kept verbatim as the independent gradient oracle for the stacked
// Backward. It accumulates into the same Weight/Bias gradients and returns
// the same dx (to float tolerance).
func (c *Conv2D) BackwardReference(grad *tensor.Tensor) *tensor.Tensor {
	if c.cachedX == nil {
		panic("nn: Conv2D.Backward without Forward")
	}
	x := c.cachedX
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]
	g := c.geom(h, w)
	outH, outW := g.OutH(), g.OutW()
	sampleIn := c.InC * h * w
	sampleOut := c.OutC * outH * outW
	kdim := c.InC * c.KH * c.KW

	dx := tensor.New(n, c.InC, h, w)
	wmat := c.Weight.W.Reshape(c.OutC, kdim)
	wmatT := tensor.Transpose(wmat) // [kdim, OutC]

	type acc struct {
		dw *tensor.Tensor
		db []float32
	}
	type job struct{ lo, hi int }
	var jobs []job
	const chunk = 4
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		jobs = append(jobs, job{lo, hi})
	}
	workerAccs := make([]*acc, len(jobs))
	for i := range jobs {
		workerAccs[i] = &acc{dw: tensor.New(c.OutC, kdim), db: make([]float32, c.OutC)}
	}
	parallel.For(len(jobs), 1, func(jlo, jhi int) {
		cols := tensor.New(kdim, outH*outW)
		dcols := tensor.New(kdim, outH*outW)
		for ji := jlo; ji < jhi; ji++ {
			a := workerAccs[ji]
			for i := jobs[ji].lo; i < jobs[ji].hi; i++ {
				gslice := grad.Data[i*sampleOut : (i+1)*sampleOut]
				gmat := tensor.FromSlice(gslice, c.OutC, outH*outW)
				// dW += g @ colsᵀ
				tensor.Im2ColWindow(g, x.Data[i*sampleIn:(i+1)*sampleIn], cols.Data, outH*outW, 0)
				for oc := 0; oc < c.OutC; oc++ {
					grow := gmat.Row(oc)
					dwrow := a.dw.Row(oc)
					for kd := 0; kd < kdim; kd++ {
						dwrow[kd] += tensor.Dot(grow, cols.Row(kd))
					}
					if c.useBias {
						var s float32
						for _, v := range grow {
							s += v
						}
						a.db[oc] += s
					}
				}
				// dcols = Wᵀ @ g ; dx = col2im(dcols)
				tensor.MatMulInto(dcols, wmatT, gmat)
				tensor.Col2ImWindow(g, dcols.Data, outH*outW, 1, dx.Data[i*sampleIn:(i+1)*sampleIn])
			}
		}
	})
	for _, a := range workerAccs {
		c.Weight.Grad.Reshape(c.OutC, kdim).AXPY(1, a.dw)
		if c.useBias {
			for oc, v := range a.db {
				c.Bias.Grad.Data[oc] += v
			}
		}
	}
	return dx
}
