package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape metadata: %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout violated: flat value %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	x.Data[5] = 3
	y := x.Reshape(3, 4)
	if y.Data[5] != 3 {
		t.Fatal("Reshape must alias underlying data")
	}
	y.Data[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("write through reshaped tensor not visible in original")
	}
}

func TestReshapeInfer(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(2, -1)
	if y.Shape[1] != 12 {
		t.Fatalf("inferred dim = %d, want 12", y.Shape[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reshaping to incompatible shape")
		}
	}()
	x.Reshape(5, -1)
}

func TestCloneIndependence(t *testing.T) {
	x := New(3)
	x.Fill(2)
	y := x.Clone()
	y.Data[0] = -1
	if x.Data[0] != 2 {
		t.Fatal("Clone must not share data")
	}
}

func TestRowAliases(t *testing.T) {
	x := New(2, 3)
	r := x.Row(1)
	r[0] = 5
	if x.At(1, 0) != 5 {
		t.Fatal("Row must alias tensor data")
	}
}

// Property: for any data, Reshape preserves the multiset of values and Sum.
func TestReshapePreservesSumProperty(t *testing.T) {
	f := func(vals []float32) bool {
		n := len(vals)
		if n == 0 {
			return true
		}
		x := FromSlice(append([]float32(nil), vals...), n)
		y := x.Reshape(1, n)
		sum := func(t *Tensor) (s float64) {
			for _, v := range t.Data {
				s += float64(v)
			}
			return s
		}
		return math.Abs(sum(x)-sum(y)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
