package tensor

import (
	"fmt"
	"math"
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
// then scatters the stacked matrix back with Col2ImWindow against the scalar
// scatter of that window.
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
			dxWin, dxOne := make([]float32, in), make([]float32, in)
			Col2ImWindow(g, stacked.Data, b*hw, s*hw, dxWin)
			col2imScalar(g, one, dxOne)
			for i, v := range dxOne {
				if math.Float32bits(dxWin[i]) != math.Float32bits(v) {
					t.Fatalf("%+v: Col2ImWindow %d [%d] = %v, want %v", g, s, i, dxWin[i], v)
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
	TransposeMatMulInto(dst, a, b, nil)
	for i := range want.Data {
		if math.Abs(float64(dst.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("TransposeMatMulInto[%d] = %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
	// Caller-owned scratch path must agree bit-for-bit with the pooled path.
	dst2 := New(7, 11)
	scratch := make([]float32, a.Len())
	TransposeMatMulInto(dst2, a, b, scratch)
	for i := range dst.Data {
		if math.Float32bits(dst.Data[i]) != math.Float32bits(dst2.Data[i]) {
			t.Fatalf("scratch path diverges at %d", i)
		}
	}
}

func TestFloatPoolRecycles(t *testing.T) {
	buf := GetFloats(1 << 12)
	if len(buf) != 1<<12 {
		t.Fatalf("GetFloats length %d", len(buf))
	}
	PutFloats(buf)
	small := GetFloats(16)
	if len(small) != 16 {
		t.Fatalf("GetFloats length %d", len(small))
	}
	PutFloats(small)
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
