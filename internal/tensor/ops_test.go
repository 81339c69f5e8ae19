package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAddSubMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2), New(3))
}

func TestScaleAXPY(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	a.Scale(3)
	if a.Data[1] != 6 {
		t.Fatalf("Scale = %v", a.Data)
	}
	x := FromSlice([]float32{1, 1}, 2)
	a.AXPY(2, x)
	if a.Data[0] != 5 || a.Data[1] != 8 {
		t.Fatalf("AXPY = %v", a.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	g := NewRNG(1)
	a := New(4, 4)
	g.FillNormal(a, 0, 1)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	c := MatMul(a, eye)
	for i := range a.Data {
		if !almostEq(float64(c.Data[i]), float64(a.Data[i]), 1e-6) {
			t.Fatal("A @ I != A")
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to cross matmulMinParallel; verify against the naive
	// triple loop.
	g := NewRNG(2)
	m, k, n := 37, 53, 41
	a, b := New(m, k), New(k, n)
	g.FillNormal(a, 0, 1)
	g.FillNormal(b, 0, 1)
	c := MatMul(a, b)
	for i := 0; i < m; i += 7 {
		for j := 0; j < n; j += 5 {
			var want float64
			for p := 0; p < k; p++ {
				want += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			if !almostEq(float64(c.Data[i*n+j]), want, 1e-3) {
				t.Fatalf("MatMul[%d,%d] = %v, want %v", i, j, c.Data[i*n+j], want)
			}
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	g := NewRNG(3)
	a, b := New(5, 8), New(6, 8)
	g.FillNormal(a, 0, 1)
	g.FillNormal(b, 0, 1)
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("MatMulT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeMatMulMatchesExplicit(t *testing.T) {
	g := NewRNG(4)
	a, b := New(7, 4), New(7, 5)
	g.FillNormal(a, 0, 1)
	g.FillNormal(b, 0, 1)
	got := TransposeMatMul(a, b)
	want := MatMul(Transpose(a), b)
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("TransposeMatMul mismatch at %d", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := NewRNG(5)
	a := New(3, 9)
	g.FillNormal(a, 0, 1)
	b := Transpose(Transpose(a))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("transpose twice must be identity")
		}
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax element out of (0,1): %v", v)
		}
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Fatalf("softmax sum = %v", sum)
	}
	for i := 1; i < 4; i++ {
		if dst[i] <= dst[i-1] {
			t.Fatal("softmax must be monotone in logits")
		}
	}
}

func TestSoftmaxStabilityLargeLogits(t *testing.T) {
	src := []float32{1000, 1001, 999}
	dst := make([]float32, 3)
	Softmax(dst, src)
	for _, v := range dst {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
	if dst[1] < dst[0] || dst[0] < dst[2] {
		t.Fatal("ordering lost")
	}
}

func TestSoftmaxTemperatureFlattens(t *testing.T) {
	src := []float32{0, 4}
	hard := make([]float32, 2)
	soft := make([]float32, 2)
	SoftmaxT(hard, src, 1)
	SoftmaxT(soft, src, 10)
	if !(soft[0] > hard[0]) {
		t.Fatalf("high temperature must flatten: hard=%v soft=%v", hard, soft)
	}
}

func TestArgmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 9, 3, 1}, 2, 3)
	got := ArgmaxRows(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestSignConvention(t *testing.T) {
	x := FromSlice([]float32{-2, 0, 3}, 3)
	s := Sign(x)
	if s.Data[0] != -1 || s.Data[1] != 1 || s.Data[2] != 1 {
		t.Fatalf("Sign = %v (zero must map to +1)", s.Data)
	}
}

// Property: softmax output always sums to 1 and is a valid distribution.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		src := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true // skip degenerate inputs
			}
			// keep logits in a sane range to mimic real similarity scores
			src[i] = float32(math.Mod(float64(v), 50))
		}
		dst := make([]float32, len(src))
		Softmax(dst, src)
		var sum float64
		for _, v := range dst {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A@B)ᵀ == Bᵀ@Aᵀ for random small matrices.
func TestMatMulTransposeIdentityProperty(t *testing.T) {
	g := NewRNG(6)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+g.Intn(6), 1+g.Intn(6), 1+g.Intn(6)
		a, b := New(m, k), New(k, n)
		g.FillNormal(a, 0, 1)
		g.FillNormal(b, 0, 1)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		for i := range lhs.Data {
			if !almostEq(float64(lhs.Data[i]), float64(rhs.Data[i]), 1e-4) {
				t.Fatalf("(AB)ᵀ != BᵀAᵀ at trial %d", trial)
			}
		}
	}
}
