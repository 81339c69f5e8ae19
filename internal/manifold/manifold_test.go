package manifold

import (
	"math"
	"testing"

	"nshd/internal/tensor"
)

func TestForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	l, err := New(rng, []int{8, 4, 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.PooledF != 8*2*2 {
		t.Fatalf("PooledF = %d, want 32", l.PooledF)
	}
	x := tensor.New(3, 8, 4, 4)
	rng.FillNormal(x, 0, 1)
	y := l.Forward(x, false)
	if y.Rank() != 2 || y.Shape[0] != 3 || y.Shape[1] != 10 {
		t.Fatalf("output shape %v", y.Shape)
	}
}

func TestSmallSpatialSkipsPool(t *testing.T) {
	rng := tensor.NewRNG(2)
	l, err := New(rng, []int{16, 1, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l.PooledF != 16 {
		t.Fatalf("PooledF = %d, want 16 (no pooling possible)", l.PooledF)
	}
	x := tensor.New(2, 16, 1, 1)
	rng.FillNormal(x, 0, 1)
	if y := l.Forward(x, false); y.Shape[1] != 5 {
		t.Fatalf("output shape %v", y.Shape)
	}
}

func TestValidation(t *testing.T) {
	rng := tensor.NewRNG(3)
	if _, err := New(rng, []int{4, 4}, 10); err == nil {
		t.Fatal("expected error for non-3D shape")
	}
	if _, err := New(rng, []int{4, 4, 4}, 0); err == nil {
		t.Fatal("expected error for F̂=0")
	}
	l, _ := New(rng, []int{4, 4, 4}, 8)
	if err := l.CheckClasses(10); err == nil {
		t.Fatal("expected F̂ < classes violation")
	}
	if err := l.CheckClasses(8); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	l, _ := New(rng, []int{2, 4, 4}, 3)
	x := tensor.New(2, 2, 4, 4)
	tensor.NewRNG(5).FillNormal(x, 0, 1)

	loss := func() float64 {
		y := l.Forward(x, true)
		var s float64
		for i, v := range y.Data {
			s += float64(v) * float64(1+i%4)
		}
		return s
	}
	l.ZeroGrad()
	y := l.Forward(x, true)
	gout := tensor.New(y.Shape...)
	for i := range gout.Data {
		gout.Data[i] = float32(1 + i%4)
	}
	l.Backward(gout)

	const eps = 1e-2
	w := l.Params()[0]
	for idx := 0; idx < w.W.Len(); idx += w.W.Len()/7 + 1 {
		orig := w.W.Data[idx]
		w.W.Data[idx] = orig + eps
		lp := loss()
		w.W.Data[idx] = orig - eps
		lm := loss()
		w.W.Data[idx] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(w.Grad.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("FC grad[%d] = %v, finite diff %v", idx, got, want)
		}
	}
}

func TestStatsMACs(t *testing.T) {
	rng := tensor.NewRNG(6)
	l, _ := New(rng, []int{8, 4, 4}, 10)
	s := l.Stats()
	if s.MACs != int64(8*2*2)*10 {
		t.Fatalf("MACs = %d, want %d", s.MACs, 8*2*2*10)
	}
	if s.Params != int64(32*10+10) {
		t.Fatalf("Params = %d", s.Params)
	}
}

func TestCompressionReducesEncodingCost(t *testing.T) {
	// The whole point of the manifold layer (Fig. 5): encoding F̂ features
	// into D dims costs far less than encoding the raw flattened features.
	rng := tensor.NewRNG(7)
	inShape := []int{64, 8, 8} // F = 4096
	l, _ := New(rng, inShape, 100)
	d := int64(3000)
	rawF := int64(64 * 8 * 8)
	withManifold := int64(l.Stats().MACs) + int64(l.FHat)*d
	without := rawF * d
	if withManifold >= without {
		t.Fatalf("manifold must reduce encoding cost: %d vs %d", withManifold, without)
	}
}

func TestForwardInferMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, shape := range [][]int{{4, 8, 8}, {3, 1, 5}} { // pooled and pool-skipped
		l, err := New(rng, shape, 10)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(append([]int{6}, shape...)...)
		rng.FillNormal(x, 0, 1)
		want := l.Forward(x, false)

		ar := tensor.NewArena()
		in := ar.Alloc(x.Shape...)
		copy(in.Data, x.Data)
		got := l.ForwardInfer(in, ar)
		if !got.SameShape(want) {
			t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: ForwardInfer[%d]=%v, Forward=%v", shape, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestFoldProjection: folding FC→projection into (G, c) reproduces the
// staged (x Wᵀ + b) P product to float tolerance, and the nil/empty guards
// return errors instead of panicking.
func TestFoldProjection(t *testing.T) {
	rng := tensor.NewRNG(3)
	l, err := New(rng, []int{4, 6, 6}, 10)
	if err != nil {
		t.Fatal(err)
	}
	const d = 70
	p := tensor.New(10, d)
	tensor.NewRNG(4).FillBipolar(p)
	g, c, err := l.FoldProjection(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shape[0] != l.PooledF || g.Shape[1] != d || len(c) != d {
		t.Fatalf("fold shapes G=%v c=%d, want [%d %d] and %d", g.Shape, len(c), l.PooledF, d, d)
	}

	x := tensor.New(3, 4, 6, 6)
	tensor.NewRNG(5).FillNormal(x, 0, 1)
	staged := tensor.MatMul(l.Forward(x, false), p) // [3, d]

	ar := tensor.NewArena()
	pl := l.Pool()
	y := pl.ForwardInfer(ar.Wrap(x.Data, x.Shape...), ar)
	flat := ar.Wrap(y.Data, 3, l.PooledF)
	folded := tensor.MatMul(flat, g)
	for i := range folded.Data {
		folded.Data[i] += c[i%d]
	}
	for i := range staged.Data {
		diff := float64(staged.Data[i] - folded.Data[i])
		if diff < 0 {
			diff = -diff
		}
		scale := float64(staged.Data[i])
		if scale < 0 {
			scale = -scale
		}
		if diff > 1e-4*(1+scale) {
			t.Fatalf("folded product differs at %d: staged %v folded %v", i, staged.Data[i], folded.Data[i])
		}
	}

	var nilL *Learner
	if _, _, err := nilL.FoldProjection(p); err == nil {
		t.Fatal("nil learner folded without error")
	}
	if _, _, err := l.FoldProjection(tensor.New(11, d)); err == nil {
		t.Fatal("shape-mismatched projection folded without error")
	}
}
