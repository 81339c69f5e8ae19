package tensor

import (
	"fmt"
	"testing"
)

// Im2Col, a reference only tests use, expands one image (C×H×W, flattened in
// x) into a matrix of shape (C*KH*KW) × (OutH*OutW), written into cols. Each column holds the receptive
// field of one output location; out-of-bounds (padding) positions are zero.
func Im2Col(g ConvGeom, x []float32, cols *Tensor) {
	rows, nOut := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	if cols.Shape[0] != rows || cols.Shape[1] != nOut {
		panic(fmt.Sprintf("tensor: Im2Col output shape %v, want [%d %d]", cols.Shape, rows, nOut))
	}
	Im2ColWindow(g, x, cols.Data, nOut, 0)
}

// Col2Im, Im2Col's test-only adjoint, scatters the column matrix back into an
// image gradient of C×H×W, accumulating overlapping contributions into dx.
// dx must be pre-zeroed by the caller if accumulation from scratch is wanted;
// cols' entries that read padding may be overwritten (Col2ImWindow).
func Col2Im(g ConvGeom, cols *Tensor, dx []float32) {
	Col2ImWindow(g, cols.Data, g.OutH()*g.OutW(), 1, dx)
}

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-padding 3x3 stride 1 must preserve dims, got %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 32, InW: 32, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if g2.OutH() != 16 || g2.OutW() != 16 {
		t.Fatalf("2x2 stride-2 pool: got %dx%d", g2.OutH(), g2.OutW())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation failure for kernel larger than input")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no padding: cols must equal the input.
	g := ConvGeom{InC: 2, InH: 3, InW: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	x := make([]float32, 2*3*3)
	for i := range x {
		x[i] = float32(i)
	}
	cols := New(2, 9)
	Im2Col(g, x, cols)
	for i := range x {
		if cols.Data[i] != x[i] {
			t.Fatalf("1x1 im2col must be identity; mismatch at %d", i)
		}
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1 channel 3x3 input, 2x2 kernel stride 1: 4 output positions.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	cols := New(4, 4)
	Im2Col(g, x, cols)
	// Column 0 is the top-left patch [1 2 4 5] read kernel-row-major.
	want0 := []float32{1, 2, 4, 5}
	for r := 0; r < 4; r++ {
		if cols.At(r, 0) != want0[r] {
			t.Fatalf("patch 0 row %d = %v, want %v", r, cols.At(r, 0), want0[r])
		}
	}
	// Column 3 is the bottom-right patch [5 6 8 9].
	want3 := []float32{5, 6, 8, 9}
	for r := 0; r < 4; r++ {
		if cols.At(r, 3) != want3[r] {
			t.Fatalf("patch 3 row %d = %v, want %v", r, cols.At(r, 3), want3[r])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := []float32{1, 2, 3, 4}
	cols := New(9, g.OutH()*g.OutW())
	cols.Fill(99) // ensure padding positions are actively zeroed
	Im2Col(g, x, cols)
	// Output position (0,0): kernel centered so that kh=0,kw=0 reads (-1,-1) → 0.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padding position must be zero, got %v", cols.At(0, 0))
	}
	// Center tap (kh=1,kw=1) of output (0,0) reads input (0,0) = 1.
	if cols.At(4, 0) != 1 {
		t.Fatalf("center tap = %v, want 1", cols.At(4, 0))
	}
}

func TestConvViaIm2ColMatchesDirect(t *testing.T) {
	// Full convolution through im2col + matmul vs a naive direct loop.
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := NewRNG(7)
	x := New(2, 5, 5)
	rng.FillNormal(x, 0, 1)
	outC := 4
	w := New(outC, 2, 3, 3)
	rng.KaimingConv(w)

	cols := New(2*3*3, g.OutH()*g.OutW())
	Im2Col(g, x.Data, cols)
	wmat := w.Reshape(outC, 2*3*3)
	y := MatMul(wmat, cols) // outC × (outH*outW)

	for oc := 0; oc < outC; oc++ {
		for oh := 0; oh < g.OutH(); oh++ {
			for ow := 0; ow < g.OutW(); ow++ {
				var want float64
				for ic := 0; ic < 2; ic++ {
					for kh := 0; kh < 3; kh++ {
						for kw := 0; kw < 3; kw++ {
							ih, iw := oh-1+kh, ow-1+kw
							if ih < 0 || ih >= 5 || iw < 0 || iw >= 5 {
								continue
							}
							want += float64(x.At(ic, ih, iw)) * float64(w.At(oc, ic, kh, kw))
						}
					}
				}
				got := float64(y.At(oc, oh*g.OutW()+ow))
				if !almostEq(got, want, 1e-4) {
					t.Fatalf("conv mismatch at oc=%d oh=%d ow=%d: %v vs %v", oc, oh, ow, got, want)
				}
			}
		}
	}
}

func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), c> == <x, Col2Im(c)> — the adjoint identity that makes
	// backprop through conv correct.
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	rng := NewRNG(8)
	x := New(2, 4, 4)
	rng.FillNormal(x, 0, 1)
	rows, colsN := 2*3*3, g.OutH()*g.OutW()
	c := New(rows, colsN)
	rng.FillNormal(c, 0, 1)

	xc := New(rows, colsN)
	Im2Col(g, x.Data, xc)
	lhs := float64(Dot(xc.Data, c.Data))

	dx := make([]float32, 2*4*4)
	Col2Im(g, c, dx)
	rhs := float64(Dot(x.Data, dx))

	if !almostEq(lhs, rhs, 1e-3) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	cols := New(4, 4)
	cols.Fill(1)
	dx := make([]float32, 9)
	Col2Im(g, cols, dx)
	// Center pixel (1,1) is covered by all four 2x2 patches.
	if dx[4] != 4 {
		t.Fatalf("center accumulation = %v, want 4", dx[4])
	}
	// Corner (0,0) is covered once.
	if dx[0] != 1 {
		t.Fatalf("corner accumulation = %v, want 1", dx[0])
	}
}
