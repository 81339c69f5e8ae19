package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nshd/internal/tensor/tensortest"
)

// rowsConvGeoms are the geometries of the in-place conv products' tests:
// every deep-layer map of the VGG extractors (8×8, 4×4, 2×2, 1×1, which are
// not in offset form), strides 2 and 3, no padding, 1×1 and 5×5 kernels,
// kdim through two K blocks (64·9 = 576) and off the strip grid (3·9 = 27).
func rowsConvGeoms() []ConvGeom {
	return []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 64, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 32, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 5, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 7, InH: 1, InW: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 4, InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 2, InH: 11, InW: 7, KH: 5, KW: 3, StrideH: 3, StrideW: 2, PadH: 2, PadW: 0},
		{InC: 6, InH: 5, InW: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
	}
}

// atEveryWidth runs f at 512 bits, at 256 bits and on the portable kernels,
// as subtests, skipping the widths this machine lacks.
func atEveryWidth(t *testing.T, f func(t *testing.T)) {
	for _, w := range []struct {
		name      string
		asm, wide bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"portable", false, false}} {
		t.Run(w.name, func(t *testing.T) {
			ran := runWithAsm(w.asm, func() {
				if !runWithGemm512(w.wide, func() { f(t) }) {
					t.Skip("no usable AVX-512 state on this machine")
				}
			})
			if !ran {
				t.Skip("no vector kernels on this build")
			}
		})
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	return x
}

func sameBitsAt(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// stackedCols is the column matrix the in-place products reproduce: b images
// of x side by side, [kdim, b·HW].
func stackedCols(g ConvGeom, x []float32, b int) *Tensor {
	hw, in := g.OutH()*g.OutW(), g.InC*g.InH*g.InW
	cols := New(g.InC*g.KH*g.KW, b*hw)
	for s := 0; s < b; s++ {
		Im2ColWindow(g, x[s*in:][:in], cols.Data, b*hw, s*hw)
	}
	return cols
}

// TestConvInPlaceProductsMatchColumns pins the three products that read a
// conv's operands in place to the column products they replace, bit for
// bit: the rows-form forward against MatMulSerialInto on each stack's
// materialized column matrix, the weight gradient against Im2ColWindow and
// MatMulAccTSerialInto, and dcols = Wᵀ·G against MatMulSerialInto on the
// transposed weights. Output channel counts one, two and three strips wide
// and off the strip grid; image counts whose stacks leave ragged columns.
func TestConvInPlaceProductsMatchColumns(t *testing.T) {
	atEveryWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		for gi, g := range rowsConvGeoms() {
			if err := g.Validate(); err != nil {
				t.Fatalf("geom %d: %v", gi, err)
			}
			kdim, hw, in := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
			for _, outC := range []int{16, 24, 32, 48, 5} {
				wmat := FromSlice(randSlice(rng, outC*kdim), outC, kdim)
				for _, b := range []int{1, 3, 5, 17} {
					name := fmt.Sprintf("geom%d_outC%d_b%d", gi, outC, b)
					x := randSlice(rng, b*in)
					grad := FromSlice(randSlice(rng, outC*b*hw), outC, b*hw)

					// dW: accumulate onto a nonzero start, as Backward's chunks do.
					dwT := FromSlice(randSlice(rng, kdim*outC), kdim, outC)
					want := dwT.Clone()
					MatMulAccTSerialInto(want, stackedCols(g, x, b), grad, make([]float32, GemmScratch()))
					ConvWeightGradSerialInto(dwT, g, x, b, grad, make([]float32, ConvGradScratch(g, b)))
					if i := sameBitsAt(dwT.Data, want.Data); i >= 0 {
						t.Fatalf("%s: dWᵀ[%d] in place %v, columns %v", name, i, dwT.Data[i], want.Data[i])
					}

					dcols, wantCols := New(kdim, b*hw), New(kdim, b*hw)
					MatMulSerialInto(wantCols, Transpose(wmat), grad, make([]float32, GemmScratch()))
					MatMulATSerialInto(dcols, wmat, grad, make([]float32, MatMulATScratch(kdim, outC)))
					if i := sameBitsAt(dcols.Data, wantCols.Data); i >= 0 {
						t.Fatalf("%s: dcols[%d] in place %v, transposed %v", name, i, dcols.Data[i], wantCols.Data[i])
					}

					if !ConvRowsForm(g, outC) {
						continue
					}
					packed := make([]float32, kdim*outC)
					PackConvWeights(packed, wmat)
					bias := randSlice(rng, outC)
					for _, stack := range []int{1, 4, 16} {
						wantY := make([]float32, b*outC*hw)
						for s0 := 0; s0 < b; s0 += stack {
							sb := min(stack, b-s0)
							out := New(outC, sb*hw)
							MatMulSerialInto(out, wmat, stackedCols(g, x[s0*in:], sb), make([]float32, GemmScratch()))
							for s := 0; s < sb; s++ {
								for oc := 0; oc < outC; oc++ {
									for j := 0; j < hw; j++ {
										wantY[((s0+s)*outC+oc)*hw+j] = out.Data[oc*sb*hw+s*hw+j] + bias[oc]
									}
								}
							}
						}
						y := randSlice(rng, b*outC*hw)
						ConvRowsSerialInto(y, wmat, packed, bias, g, x, b, stack, make([]float32, ConvRowsScratch(g, outC, b)))
						if i := sameBitsAt(y, wantY); i >= 0 {
							t.Fatalf("%s_stack%d: y[%d] rows form %v, columns %v", name, stack, i, y[i], wantY[i])
						}
					}
				}
			}
		}
	})
}

// BenchmarkConvTrainProducts times each in-place training product against
// the column product it replaced, one Conv2D chunk of the VGG16/4 stage
// shapes (32×32 one sample, 8×8 four, 4×4 and 2×2 sixteen) at both kernel
// widths: the rows-form forward (at 2×2 Forward's stack of 16) against
// Im2ColWindow + MatMulSerialInto per stack, the weight gradient in place
// against Im2ColWindow + MatMulAccTSerialInto, and dcols with Wᵀ read in
// place against a transpose and MatMulSerialInto.
func BenchmarkConvTrainProducts(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	for _, s := range []struct{ ch, size, n, stack int }{{16, 32, 1, 1}, {64, 8, 4, 1}, {128, 4, 16, 1}, {128, 2, 16, 16}} {
		g := ConvGeom{InC: s.ch, InH: s.size, InW: s.size, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		kdim, hw, ld := s.ch*9, s.size*s.size, s.n*s.size*s.size
		x := randSlice(rng, s.n*s.ch*hw)
		wmat, grad := FromSlice(randSlice(rng, s.ch*kdim), s.ch, kdim), FromSlice(randSlice(rng, s.ch*ld), s.ch, ld)
		cols, out, wt, dwT := New(kdim, ld), New(s.ch, ld), New(kdim, s.ch), New(kdim, s.ch)
		packed, y := make([]float32, kdim*s.ch), make([]float32, s.ch*ld)
		scratch := make([]float32, max(ConvRowsScratch(g, s.ch, s.n), ConvGradScratch(g, s.n), MatMulATScratch(kdim, s.ch), GemmScratch()))
		im2col := func() {
			for i := 0; i < s.n; i++ {
				Im2ColWindow(g, x[i*s.ch*hw:][:s.ch*hw], cols.Data, ld, i*hw)
			}
		}
		products := []struct {
			name string
			run  func()
		}{
			{"dW/columns", func() { im2col(); MatMulAccTSerialInto(dwT, cols, grad, scratch) }},
			{"dW/in-place", func() { ConvWeightGradSerialInto(dwT, g, x, s.n, grad, scratch) }},
			{"dcols/transposed", func() { TransposeInto(wt, wmat); MatMulSerialInto(cols, wt, grad, scratch) }},
			{"dcols/in-place", func() { MatMulATSerialInto(cols, wmat, grad, scratch) }},
		}
		if s.size < 16 {
			products = append(products, []struct {
				name string
				run  func()
			}{
				{"forward/columns", func() {
					for i := 0; i < s.n; i += s.stack {
						c := FromSlice(cols.Data[:kdim*s.stack*hw], kdim, s.stack*hw)
						for j := 0; j < s.stack; j++ {
							Im2ColWindow(g, x[(i+j)*s.ch*hw:][:s.ch*hw], c.Data, s.stack*hw, j*hw)
						}
						MatMulSerialInto(FromSlice(out.Data[:s.ch*s.stack*hw], s.ch, s.stack*hw), wmat, c, scratch)
					}
				}},
				{"forward/in-place", func() {
					if ConvRowsForm(g, s.ch) {
						PackConvWeights(packed, wmat)
						ConvRowsSerialInto(y, wmat, packed, nil, g, x, s.n, s.stack, scratch)
					}
				}},
			}...)
		}
		for _, p := range products {
			tensortest.BenchWidths(b, fmt.Sprintf("%dto%d@%dx%d/%s", s.ch, s.ch, s.size, s.size, p.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.run()
				}
				b.ReportMetric(float64(s.ch*kdim*ld)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
