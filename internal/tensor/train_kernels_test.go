package tensor

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
)

func TestMatMulTIntoMatchesMatMulT(t *testing.T) {
	rng := NewRNG(7)
	a := New(13, 97)
	b := New(5, 97)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	want := MatMulT(a, b)
	dst := New(13, 5)
	dst.Fill(42) // must be fully overwritten
	MatMulTInto(dst, a, b)
	for i := range want.Data {
		if math.Float32bits(dst.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("MatMulTInto[%d] = %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

// accTCase runs dst += a·bᵀ through MatMulAccTSerialInto from a non-zero dst
// and returns the result beside the reference init + a·(bᵀ) computed by the
// naive kernel on a materialized transpose.
func accTCase(m, n, k int) (got, want *Tensor) {
	a := randMat(int64(m*7+k), m, k)
	b := randMat(int64(n*13+k), n, k)
	got = randMat(int64(m+n+k), m, n)
	init := got.Clone()
	MatMulAccTSerialInto(got, a, b, make([]float32, GemmScratch()))
	want = New(m, n)
	MatMulNaiveInto(want, a, Transpose(b))
	want.AXPY(1, init)
	return got, want
}

var accTDims = struct{ m, n, k []int }{
	m: []int{1, 3, 4, 17},
	n: []int{1, 15, 16, 27, 257},
	k: []int{1, 4, 7, 16, 255, 256, 257, 1024},
}

// TestMatMulAccTMatchesNaive covers the accumulating transposed-B entry of
// the blocked driver over skinny and leftover rows, ragged and multi-block
// column counts, and reduction lengths around the vector width and the K
// block — starting from a non-zero dst, so overwriting instead of
// accumulating fails too.
func TestMatMulAccTMatchesNaive(t *testing.T) {
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			for _, m := range accTDims.m {
				for _, n := range accTDims.n {
					for _, k := range accTDims.k {
						got, want := accTCase(m, n, k)
						// Same bound as TestMatMulMatchesNaive: the K-sum is regrouped
						// per gemmKC block and fused, O(√K·ε) from the linear sum.
						tol := 1e-6 * (4 + math.Sqrt(float64(k))*4)
						if d := maxRelDiff(want, got); d > tol {
							t.Errorf("shape %dx%dx%d: acc-T vs naive rel diff %g > %g", m, n, k, d, tol)
						}
					}
				}
			}
		})
	}
}

func TestMatMulAccTPanics(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %v, want one containing %q", name, r, want)
			}
		}()
		fn()
	}
	scratch := make([]float32, GemmScratch())
	mustPanic("k mismatch", "shape mismatch", func() {
		MatMulAccTSerialInto(New(3, 5), New(3, 7), New(5, 8), scratch)
	})
	mustPanic("dst shape", "shape mismatch", func() {
		MatMulAccTSerialInto(New(3, 4), New(3, 7), New(5, 7), scratch)
	})
	mustPanic("rank", "rank-2", func() {
		MatMulAccTSerialInto(New(3, 5), New(3, 7), New(5, 7, 1), scratch)
	})
	if GemmScratch() > 0 {
		mustPanic("scratch", "scratch", func() {
			MatMulAccTSerialInto(New(3, 5), New(3, 7), New(5, 7), scratch[:GemmScratch()-1])
		})
	}
}

// col2imScalar is the per-element scatter with a bounds test per tap: the
// order of additions Col2ImWindow's contiguous stride-1 runs must reproduce.
func col2imScalar(g ConvGeom, cols *Tensor, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	for r, rows := 0, g.InC*g.KH*g.KW; r < rows; r++ {
		c, kh, kw := r/(g.KH*g.KW), r/g.KW%g.KH, r%g.KW
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
				if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
					dx[(c*g.InH+ih)*g.InW+iw] += cols.Data[r*outH*outW+oh*outW+ow]
				}
			}
		}
	}
}

// TestConvWindowsMatchPerSample stacks three images side by side with
// Im2ColWindow and checks every window against Im2Col of that image alone,
// then scatters the stacked matrix back with one Col2ImWindow call against the
// scalar scatter of each window.
func TestConvWindowsMatchPerSample(t *testing.T) {
	for _, g := range []ConvGeom{
		{InC: 2, InH: 5, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 3, InH: 7, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
	} {
		const b = 3
		rows, hw, in := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
		x := randMat(int64(in), b, in)
		stacked := randMat(5, rows, b*hw) // garbage: every element must be written
		for s := 0; s < b; s++ {
			Im2ColWindow(g, x.Row(s), stacked.Data, b*hw, s*hw)
		}
		for s := 0; s < b; s++ {
			one := New(rows, hw)
			Im2Col(g, x.Row(s), one)
			for r := 0; r < rows; r++ {
				for j, v := range one.Row(r) {
					if got := stacked.Data[r*b*hw+s*hw+j]; got != v {
						t.Fatalf("%+v: window %d [%d,%d] = %v, want %v", g, s, r, j, got, v)
					}
				}
			}
		}
		dxWin := make([]float32, b*in)
		Col2ImWindow(g, stacked.Clone().Data, b*hw, b, dxWin)
		for s := 0; s < b; s++ {
			one := New(rows, hw)
			for r := 0; r < rows; r++ {
				copy(one.Row(r), stacked.Data[r*b*hw+s*hw:][:hw])
			}
			dxOne := make([]float32, in)
			col2imScalar(g, one, dxOne)
			for i, v := range dxOne {
				if math.Float32bits(dxWin[s*in+i]) != math.Float32bits(v) {
					t.Fatalf("%+v: Col2ImWindow %d [%d] = %v, want %v", g, s, i, dxWin[s*in+i], v)
				}
			}
		}
	}
}

func TestTransposeIntoMatchesTranspose(t *testing.T) {
	rng := NewRNG(11)
	a := New(70, 41)
	rng.FillNormal(a, 0, 1)
	want := Transpose(a)
	dst := New(41, 70)
	TransposeInto(dst, a)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("TransposeInto[%d] = %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestTransposeMatMulIntoMatchesReference(t *testing.T) {
	rng := NewRNG(13)
	a := New(29, 7) // K×M
	b := New(29, 11)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	want := transposeMatMulRef(a, b)
	dst := New(7, 11)
	TransposeMatMulInto(dst, a, b, make([]float32, a.Len()))
	for i := range want.Data {
		if math.Abs(float64(dst.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("TransposeMatMulInto[%d] = %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
	// Scratch for the transpose only, then for the product's panel too, both
	// garbage-filled, must give the same bits.
	for _, n := range []int{a.Len(), a.Len() + GemmScratch()} {
		dst2 := New(7, 11)
		scratch := randMat(5, 1, n).Data
		TransposeMatMulInto(dst2, a, b, scratch)
		for i := range dst.Data {
			if math.Float32bits(dst.Data[i]) != math.Float32bits(dst2.Data[i]) {
				t.Fatalf("scratch of %d floats: diverges at %d", n, i)
			}
		}
	}
}

// TestTransposeMatMulIntoShortScratchPanics: scratch shorter than aᵀ's K·M
// floats is a caller's sizing bug, and panics, as in ConvMulSerialInto.
func TestTransposeMatMulIntoShortScratchPanics(t *testing.T) {
	a, b := New(29, 7), New(29, 11)
	defer func() {
		const want = "tensor: TransposeMatMulInto scratch 202 < K·M 203"
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	TransposeMatMulInto(New(7, 11), a, b, make([]float32, a.Len()-1))
}

func TestArenaGrowServesFromSlabs(t *testing.T) {
	a := NewArena()
	a.Alloc(128)
	a.Floats(64)
	a.Reset()
	a.Grow()
	f := a.Floats(64)
	if len(f) != 64 {
		t.Fatalf("Floats length %d", len(f))
	}
	// Within the grown slab: the second allocation must be contiguous with
	// the first (bump allocation), proving the slab path is taken.
	g := a.Floats(64)
	if &f[:cap(f)][cap(f)-1] == &g[0] {
		t.Fatal("allocations overlap")
	}
	// Exceeding the slab must fall back to the heap, not panic.
	big := a.Floats(1 << 16)
	if len(big) != 1<<16 {
		t.Fatalf("overflow Floats length %d", len(big))
	}
	a.Reset()
	a.Grow() // absorb the new peak
	if got := a.Floats(1 << 16); len(got) != 1<<16 {
		t.Fatalf("post-grow Floats length %d", len(got))
	}
}

// TestTransposeMatMulAccMatchesTwoPass is the in-place weight gradient's
// gate: TransposeMatMulAccInto gives dst the bits of TransposeMatMulInto into
// a buffer followed by Accumulate, starting from a nonzero dst, at the dense
// head's shape (M = N = 1024, split over the pool) for a batch of 1, 32, 256
// (in place) and 257 (two K blocks: the two passes), at a ragged N (the two
// passes) and on skinny products (M ≤ 32: B read in place), on the 512-bit,
// the forced 256-bit and the portable kernels — where no column runs on a
// strip kernel, so nothing is added in place. The last case starts from +0
// with products that underflow on the negative side, the −0 sums Fit's
// cleared gradients meet.
func TestTransposeMatMulAccMatchesTwoPass(t *testing.T) {
	type shape struct{ m, n, k int }
	shapes := []shape{{1024, 1024, 1}, {1024, 1024, 32}, {1024, 1024, 256}, {1024, 1024, 257},
		{64, 1000, 32}, {20, 64, 32}, {1, 16, 3}}
	for _, set := range []struct {
		name string
		run  func(f func()) bool
	}{
		{"avx512", func(f func()) bool { return runWithGemm512(true, f) }},
		{"avx2", func(f func()) bool { return runWithGemm512(false, f) }},
		{"portable", func(f func()) bool { return runWithAsm(false, f) }},
	} {
		ran := set.run(func() {
			for i, s := range append(shapes, shape{32, 256, 8}) {
				a, b := randMat(int64(3*i+1), s.k, s.m), randMat(int64(3*i+2), s.k, s.n)
				init := randMat(int64(3*i+3), s.m, s.n)
				if i == len(shapes) { // the underflow case
					a.Scale(-1e-25)
					b.Scale(1e-25)
					clear(init.Data)
				}
				want := init.Clone()
				prod := New(s.m, s.n)
				TransposeMatMulInto(prod, a, b, make([]float32, a.Len()))
				Accumulate(want.Data, prod.Data)
				got := init.Clone()
				scratch := randMat(9, 1, TransposeMatMulAccScratch(s.m, s.n, s.k)).Data // garbage in the workspace
				TransposeMatMulAccInto(got, a, b, scratch)
				if set.name == "portable" && accInPlace(s.n, s.k) {
					t.Errorf("%v: the portable kernels add in place", s)
				}
				for j := range want.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
						t.Fatalf("%s %v (in place %v): element %d is %v, want %v", set.name, s, accInPlace(s.n, s.k), j, got.Data[j], want.Data[j])
					}
				}
			}
		})
		if !ran {
			t.Logf("%s: no such kernels here", set.name)
		}
	}
}

// TestSumSquaresWithinBound checks SumSquares, on the AVX2 kernel and on the
// Go chain, against the exact sum of squares (math/big): within
// γ(n−1)·S on every length around the 16-float step and on a 1 M one, and
// exact where only one square is nonzero; NaN and ±Inf propagate.
func TestSumSquaresWithinBound(t *testing.T) {
	rng := NewRNG(5)
	for _, n := range append(elemLengths(), 1<<20+7) {
		x := New(n + 1).Data[1:] // an odd start
		for i := range x {
			x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
		}
		exact := new(big.Float).SetPrec(2048)
		for _, v := range x {
			sq := new(big.Float).SetPrec(2048).SetFloat64(float64(v))
			exact.Add(exact, sq.Mul(sq, sq))
		}
		s, _ := exact.Float64()
		gamma := float64(n) * 0x1p-53 / (1 - float64(n)*0x1p-53)
		for _, asm := range []bool{true, false} {
			runWithAsm(asm, func() {
				if got := SumSquares(x); math.Abs(got-s) > gamma*s {
					t.Errorf("asm=%v n=%d: %v, exact %v, bound %v", asm, n, got, s, gamma*s)
				}
				if n > 0 {
					one := make([]float32, n)
					one[n/2] = x[0]
					if got, want := SumSquares(one), float64(x[0])*float64(x[0]); got != want {
						t.Errorf("asm=%v n=%d: one square reads %v, want %v", asm, n, got, want)
					}
					for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
						one[n-1] = v
						if got := SumSquares(one); !math.IsNaN(got) && !math.IsInf(got, 1) {
							t.Errorf("asm=%v n=%d: %v among the values sums to %v", asm, n, v, got)
						}
					}
				}
			})
		}
	}
}
