package tensor

import (
	"fmt"
	"math"
	"testing"
)

// windowLattice is the geometry sweep of the two window tests: K ∈ {1, 3, 5,
// 7} against every H, W pair from maps narrower than the kernel's padding up
// to ones past two vector widths, same-padded (the flat-shift path at stride
// 1), unpadded and under-padded by one, at stride 1 and 2. Geometries with no
// output are skipped; a kernel whose outer taps never reach the image (7×7
// pad 3 on 2×2, 7×7 pad 2 on 3×3) is not.
func windowLattice(visit func(g ConvGeom)) {
	sizes := []int{1, 2, 3, 4, 8, 16, 17, 33}
	for _, k := range []int{1, 3, 5, 7} {
		pads := []int{k / 2}
		if k > 1 {
			pads = append(pads, 0)
		}
		if k/2-1 > 0 {
			pads = append(pads, k/2-1)
		}
		for _, pad := range pads {
			for _, stride := range []int{1, 2} {
				for _, h := range sizes {
					for _, w := range sizes {
						g := ConvGeom{InC: 2, InH: h, InW: w, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						if g.Validate() == nil {
							visit(g)
						}
					}
				}
			}
		}
	}
}

// edgePixels fills x with normal values salted with the bit patterns a copy
// or an add must carry through untouched: NaN, −0 and an infinity. One sign
// of infinity per fill, so that no sum is ever Inf − Inf or of two different
// NaNs, whose payload would be the hardware's operand-order choice.
func edgePixels(seed int64, n int, inf float32) []float32 {
	x := randMat(seed, 1, n).Data
	for i := range x {
		switch (i + int(seed)) % 11 {
		case 3:
			x[i] = float32(math.NaN())
		case 5:
			x[i] = float32(math.Copysign(0, -1))
		case 8:
			x[i] = inf
		}
	}
	return x
}

const windowSentinel = float32(-12345.5)

// TestIm2ColWindowMatchesScalar checks every element of a column window
// offset into a wider matrix against the index-by-index definition, bit for
// bit, and that nothing outside the window is written.
func TestIm2ColWindowMatchesScalar(t *testing.T) {
	windowLattice(func(g ConvGeom) {
		rows, hw, in := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
		ld, off := hw+5, 3
		x := edgePixels(int64(in+g.KH), in, float32(math.Inf(1-2*(in%2))))
		dst := make([]float32, rows*ld)
		for i := range dst {
			dst[i] = windowSentinel
		}
		Im2ColWindow(g, x, dst, ld, off)
		for r := 0; r < rows; r++ {
			c, kh, kw := r/(g.KH*g.KW), r/g.KW%g.KH, r%g.KW
			for j := 0; j < ld; j++ {
				want := windowSentinel
				if j >= off && j < off+hw {
					oh, ow := (j-off)/g.OutW(), (j-off)%g.OutW()
					ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
					want = 0
					if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
						want = x[(c*g.InH+ih)*g.InW+iw]
					}
				}
				if got := dst[r*ld+j]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%+v: dst[%d,%d] = %v (%#x), want %v (%#x)", g, r, j,
						got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	})
}

// TestCol2ImWindowMatchesScalar scatters a window of a wider column matrix
// into a non-zero image gradient and requires the bits of the per-element
// scatter, taps visited in the same (c, kh, kw, oh, ow) order.
func TestCol2ImWindowMatchesScalar(t *testing.T) {
	windowLattice(func(g ConvGeom) {
		rows, hw, in := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
		const b = 2
		ld := b*hw + 5
		src := edgePixels(int64(rows*ld+g.KH), rows*ld, float32(math.Inf(1-2*(in%2))))
		got := randMat(int64(in), 1, b*in).Data
		want := append([]float32(nil), got...)
		for s := 0; s < b; s++ {
			for r := 0; r < rows; r++ {
				c, kh, kw := r/(g.KH*g.KW), r/g.KW%g.KH, r%g.KW
				for oh := 0; oh < g.OutH(); oh++ {
					for ow := 0; ow < g.OutW(); ow++ {
						ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							want[s*in+(c*g.InH+ih)*g.InW+iw] += src[r*ld+s*hw+oh*g.OutW()+ow]
						}
					}
				}
			}
		}
		Col2ImWindow(g, src, ld, b, got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v: dx[%d] = %v (%#x), want %v (%#x)", g, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}

// col2imSample is the per-sample col2im Col2ImWindow replaced, kept as its
// reference: one sample's window at column off of src, each (c, kh, kw) row's
// in-image runs added by one AddRows call at stride 1, element by element
// otherwise, tap loops outermost.
func col2imSample(g ConvGeom, src []float32, ld, off int, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	hw, chanLen := outH*outW, g.InH*g.InW
	for kh := 0; kh < g.KH; kh++ {
		ohLo, ohHi := tapRange(g.InH, outH, g.StrideH, g.PadH, kh)
		for kw := 0; kw < g.KW; kw++ {
			owLo, owHi := tapRange(g.InW, outW, g.StrideW, g.PadW, kw)
			if ohLo == ohHi || owLo == owHi {
				continue
			}
			imgAt := (ohLo*g.StrideH-g.PadH+kh)*g.InW + owLo*g.StrideW - g.PadW + kw
			colAt := ohLo*outW + owLo
			for c := 0; c < g.InC; c++ {
				row := src[((c*g.KH+kh)*g.KW+kw)*ld+off:][:hw]
				img := dx[c*chanLen:][:chanLen]
				if g.StrideW == 1 {
					AddRows(img[imgAt:], g.StrideH*g.InW, row[colAt:], outW, owHi-owLo, ohHi-ohLo)
					continue
				}
				for oh := ohLo; oh < ohHi; oh++ {
					drow := img[imgAt+(oh-ohLo)*g.StrideH*g.InW:]
					for ow := owLo; ow < owHi; ow++ {
						drow[(ow-owLo)*g.StrideW] += row[oh*outW+ow]
					}
				}
			}
		}
	}
}

// hostileFloats fills n floats with uniform values salted with every class of
// bit pattern an add must carry through: ±0, a NaN in its quiet and its
// signaling form, an infinity, and subnormals of both signs. The NaN's sign
// and payload and the infinity's sign vary with the seed, one of each per
// fill: which NaN the sum of two different ones returns is the operand order,
// and Go may compile `d += v` with either operand first (it does under -race),
// so no sum here may meet two different NaNs or both infinities.
func hostileFloats(seed int64, n int) []float32 {
	x := make([]float32, n)
	nan := uint32(seed%2)<<31 | 0x7f800000 | uint32(1+seed%0x3ffffe) // signaling
	inf := float32(math.Inf(1 - 2*int(seed/2%2)))
	state := uint64(seed)*0x9E3779B97F4A7C15 | 1
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x[i] = float32(int32(state>>32)) / (1 << 30) // in [−2, 2)
		switch (i*7 + int(seed)) % 23 {
		case 2:
			x[i] = 0
		case 5:
			x[i] = float32(math.Copysign(0, -1))
		case 9:
			x[i] = math.Float32frombits(nan | 0x400000) // the same NaN, quiet
		case 11:
			x[i] = math.Float32frombits(nan)
		case 14:
			x[i] = inf
		case 19:
			x[i] = math.Float32frombits(1 + uint32(i)%0x7fffff) // positive subnormal
		case 21:
			x[i] = -math.Float32frombits(uint32(i) % 0x7fffff) // negative subnormal or −0
		}
	}
	return x
}

// TestCol2ImWindowMatchesPerSample is the chunk col2im against the per-sample
// one it replaced, bit for bit, over strides 1 and 2, pads 0–2, kernels 1, 3
// and 5 and maps 1–33 (square, and a rectangle set), kernels wider than the
// map included, at b ∈ {1, 3, 4, 16}, on hostile column values, from a
// cleared dx and (at odd b) from one of normal values. The windows sit in a
// wider matrix, whose columns past the b samples a call must leave alone.
// Dropping the zeroing of the wrapped entries on the same-size stride-1 maps
// fails it.
func TestCol2ImWindowMatchesPerSample(t *testing.T) {
	var maps [][2]int
	for s := 1; s <= 33; s++ {
		maps = append(maps, [2]int{s, s})
	}
	for _, h := range []int{1, 2, 3, 5, 16, 33} {
		for _, w := range []int{1, 2, 3, 5, 16, 33} {
			if h != w {
				maps = append(maps, [2]int{h, w})
			}
		}
	}
	for _, k := range []int{1, 3, 5} {
		for pad := 0; pad <= 2; pad++ {
			for _, stride := range []int{1, 2} {
				for mi, hw := range maps {
					g := ConvGeom{InC: 2, InH: hw[0], InW: hw[1], KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
					if g.Validate() != nil {
						continue
					}
					rows, outHW, in := g.InC*k*k, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
					for _, b := range []int{1, 3, 4, 16} {
						ld := b*outHW + 5
						src := hostileFloats(int64(mi*131+k*17+pad*5+stride+b), rows*ld)
						got := make([]float32, len(src))
						for _, cleared := range []bool{true, false}[:1+b%2] {
							want := make([]float32, b*in)
							if !cleared {
								want = randMat(int64(mi+b), 1, b*in).Data
							}
							dx := append([]float32(nil), want...)
							for s := 0; s < b; s++ {
								col2imSample(g, src, ld, s*outHW, want[s*in:][:in])
							}
							copy(got, src)
							Col2ImWindow(g, got, ld, b, dx)
							if i := bitsDiffer(dx, want); i >= 0 {
								t.Fatalf("%+v b=%d cleared=%v: dx[%d] = %v (%#x), want %v (%#x)", g, b, cleared, i,
									dx[i], math.Float32bits(dx[i]), want[i], math.Float32bits(want[i]))
							}
							for r := 0; r < rows; r++ {
								if i := bitsDiffer(got[r*ld+b*outHW:(r+1)*ld], src[r*ld+b*outHW:(r+1)*ld]); i >= 0 {
									t.Fatalf("%+v b=%d: src row %d column %d past the windows written", g, b, r, b*outHW+i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAddRowsMatchesScalar covers every tail of the vector kernel (n from 1
// past two 8-wide iterations) over strided rows, against `d[i] += v`, and
// that the gaps between rows are left alone.
func TestAddRowsMatchesScalar(t *testing.T) {
	for n := 1; n <= 21; n++ {
		for _, rows := range []int{1, 2, 5} {
			ldd, lds := n+3, n+1
			src := edgePixels(int64(n), rows*lds, float32(math.Inf(1)))
			got := edgePixels(int64(n+40), rows*ldd, float32(math.Inf(1)))
			want := append([]float32(nil), got...)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					want[r*ldd+i] += src[r*lds+i]
				}
			}
			AddRows(got, ldd, src, lds, n, rows)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d rows=%d: [%d] = %v, want %v", n, rows, i, got[i], want[i])
				}
			}
		}
	}
	AddRows(nil, 0, nil, 0, 0, 3) // empty: no access
}

// vggStages are the five conv input shapes of the CIFAR-scaled VGG16 (3×3,
// stride 1, pad 1): the geometries the pretraining step spends its im2col and
// col2im time on.
var vggStages = []ConvGeom{
	{InC: 16, InH: 32, InW: 32}, {InC: 32, InH: 16, InW: 16}, {InC: 64, InH: 8, InW: 8},
	{InC: 128, InH: 4, InW: 4}, {InC: 128, InH: 2, InW: 2},
}

func benchWindow(b *testing.B, run func(g ConvGeom, x, cols []float32)) {
	for _, g := range vggStages {
		g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW = 3, 3, 1, 1, 1, 1
		b.Run(fmt.Sprintf("c%d_%dx%d", g.InC, g.InH, g.InW), func(b *testing.B) {
			x := randMat(1, 1, g.InC*g.InH*g.InW).Data
			cols := randMat(2, 1, g.InC*9*g.InH*g.InW).Data
			b.SetBytes(int64(4 * len(cols)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(g, x, cols)
			}
		})
	}
}

// BenchmarkIm2ColWindow reports GB/s of column matrix written.
func BenchmarkIm2ColWindow(b *testing.B) {
	benchWindow(b, func(g ConvGeom, x, cols []float32) { Im2ColWindow(g, x, cols, g.InH*g.InW, 0) })
}

// BenchmarkCol2ImWindow reports GB/s of column matrix read on the samples one
// product of Conv2D.Backward covers at each VGG16/4 stage — one where HW is a
// whole number of K blocks, else the stacked chunk, clamp(256/HW, 4, 16):
// "chunk" is Col2ImWindow's one call, "per-sample" the per-sample col2im it
// replaced (col2imSample), one call a sample.
func BenchmarkCol2ImWindow(b *testing.B) {
	for _, g := range vggStages {
		g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW = 3, 3, 1, 1, 1, 1
		hw, in := g.InH*g.InW, g.InC*g.InH*g.InW
		n := 1
		if hw%GemmKBlock() != 0 {
			n = min(max(256/hw, 4), 16)
		}
		dx := make([]float32, n*in)
		cols := randMat(2, 1, g.InC*9*n*hw).Data
		for _, run := range []struct {
			name string
			f    func()
		}{
			{"chunk", func() { Col2ImWindow(g, cols, n*hw, n, dx) }},
			{"per-sample", func() {
				for s := 0; s < n; s++ {
					col2imSample(g, cols, n*hw, s*hw, dx[s*in:][:in])
				}
			}},
		} {
			b.Run(fmt.Sprintf("c%d_%dx%d_b%d/%s", g.InC, g.InH, g.InW, n, run.name), func(b *testing.B) {
				b.SetBytes(int64(4 * len(cols)))
				for i := 0; i < b.N; i++ {
					clear(dx) // keep the accumulated image finite
					run.f()
				}
			})
		}
	}
}
