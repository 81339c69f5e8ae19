package tensor

import (
	"testing"
	"unsafe"
)

// arenaBatch emulates one batch on every slab kind: two activations (floats,
// headers, shape ints) around transient scratch of each buffer kind that a
// Release rewinds, then the tail's packed words, integer dots and float64
// accumulators.
func arenaBatch(a *Arena) {
	a.Reset()
	x := a.Alloc(4, 8)
	m := a.Mark()
	a.Floats(100)[0] = 1
	a.Words(5)[0] = 1
	a.Int32s(9)[0] = 1
	a.Float64s(11)[0] = 1
	a.Wrap(x.Data, 8, 4)
	a.Release(m)
	y := a.Alloc(4, 8)
	copy(y.Data, x.Data)
	a.Words(3)[0] = 7
	a.Int32s(6)[0] = 7
	a.Float64s(2)[0] = 7
}

func TestArenaMeasureFreezeReuse(t *testing.T) {
	a := NewArena()
	arenaBatch(a)
	if a.PeakFloats() != 4*8+100 {
		t.Fatalf("peak floats = %d, want %d", a.PeakFloats(), 4*8+100)
	}
	a.Freeze()

	// The footprint is the six slabs' peaks times their element sizes: the
	// transient scratch sets every buffer peak, the post-Release allocations
	// fit under it, and two headers of rank 2 are live at once.
	want := int64(4*8+100)*4 + 5*8 + 9*4 + 11*8 + 2*2*8 + 2*int64(unsafe.Sizeof(Tensor{}))
	if got := a.FootprintBytes(); got != want {
		t.Fatalf("FootprintBytes = %d, want %d", got, want)
	}

	// Frozen steady state must hand out slab-backed buffers of every kind
	// with no allocation, on the measured arena and on a clone of it.
	c := a.CloneEmpty()
	if got := c.FootprintBytes(); got != want {
		t.Fatalf("clone FootprintBytes = %d, want %d", got, want)
	}
	for name, ar := range map[string]*Arena{"frozen": a, "clone": c} {
		if allocs := testing.AllocsPerRun(100, func() { arenaBatch(ar) }); allocs != 0 {
			t.Fatalf("%s arena allocated %.1f times per run, want 0", name, allocs)
		}
	}
}

func TestArenaFrozenOverflowPanics(t *testing.T) {
	a := NewArena()
	a.Floats(16)
	a.Freeze()
	a.Reset()
	a.Floats(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on frozen slab overflow")
		}
	}()
	a.Floats(1)
}

func TestArenaWrapAndClone(t *testing.T) {
	a := NewArena()
	data := []float32{1, 2, 3, 4, 5, 6}
	v := a.Wrap(data, 2, 3)
	if v.Shape[0] != 2 || v.Shape[1] != 3 || &v.Data[0] != &data[0] {
		t.Fatal("Wrap must view the given data with the given shape")
	}
	a.Alloc(10)
	a.Freeze()

	c := a.CloneEmpty()
	c.Wrap(data, 3, 2)
	got := c.Alloc(10)
	if len(got.Data) != 10 {
		t.Fatalf("clone Alloc returned %d floats", len(got.Data))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Wrap with mismatched shape")
		}
	}()
	c.Wrap(data, 4, 2)
}

func TestMatMulSerialIntoMatchesParallel(t *testing.T) {
	rng := NewRNG(7)
	scratch := make([]float32, GemmScratch())
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 33, 9}, {64, 128, 70}, {130, 257, 300}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		want := MatMul(a, b)
		got := New(m, n)
		MatMulSerialInto(got, a, b, scratch)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("m=%d n=%d k=%d: serial[%d]=%v parallel=%v", m, n, k, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulSerialIntoZeroAlloc(t *testing.T) {
	rng := NewRNG(3)
	a, b := New(24, 64), New(64, 80)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	dst := New(24, 80)
	scratch := make([]float32, GemmScratch())
	allocs := testing.AllocsPerRun(20, func() {
		MatMulSerialInto(dst, a, b, scratch)
	})
	if allocs != 0 {
		t.Fatalf("MatMulSerialInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestMatMulTSerialIntoMatchesParallel(t *testing.T) {
	rng := NewRNG(11)
	for _, dims := range [][3]int{{1, 1, 1}, {5, 3, 7}, {33, 10, 70}, {100, 4, 512}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(n, k)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		want := MatMulT(a, b)
		got := New(m, n)
		MatMulTSerialInto(got, a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("m=%d n=%d k=%d: serial[%d]=%v parallel=%v", m, n, k, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestDotFastMatchesMatMulT(t *testing.T) {
	rng := NewRNG(13)
	for _, k := range []int{1, 7, 8, 70, 512, 1000} {
		a, b := New(1, k), New(1, k)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		want := MatMulT(a, b).Data[0]
		if got := DotFast(a.Data, b.Data); got != want {
			t.Fatalf("k=%d: DotFast=%v MatMulT=%v", k, got, want)
		}
	}
}

func TestSignIntoMatchesSign(t *testing.T) {
	rng := NewRNG(5)
	src := New(6, 9)
	rng.FillNormal(src, 0, 1)
	src.Data[0] = 0 // zero maps to +1
	want := Sign(src)
	dst := New(6, 9)
	SignInto(dst, src)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("SignInto[%d]=%v, Sign=%v", i, dst.Data[i], want.Data[i])
		}
	}
	// In-place aliasing.
	SignInto(src, src)
	for i := range want.Data {
		if src.Data[i] != want.Data[i] {
			t.Fatalf("in-place SignInto[%d]=%v, want %v", i, src.Data[i], want.Data[i])
		}
	}
}

func TestArgmaxRowsInto(t *testing.T) {
	v := FromSlice([]float32{1, 3, 3, 0, -5, -2, -9, -2}, 2, 4)
	out := make([]int, 2)
	ArgmaxRowsInto(out, v)
	want := ArgmaxRows(v)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("row %d: ArgmaxRowsInto=%d ArgmaxRows=%d", i, out[i], want[i])
		}
	}
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("tie-break/negative handling wrong: %v", out)
	}
}
