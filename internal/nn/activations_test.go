package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor"
)

// activationEdgeInput returns n values cycling through the inputs an
// activation's comparisons can get wrong — NaNs of both signs with payloads,
// ±0, ±Inf, denormals, 6 and its neighbours — interleaved with ordinary draws
// so every 8-wide vector of the asm kernel mixes the two.
func activationEdgeInput(n int) *tensor.Tensor {
	edges := []float32{
		math.Float32frombits(0x7FC00001), math.Float32frombits(0xFFC00000),
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001),
		math.Float32frombits(0x007FFFFF), math.Float32frombits(0x807FFFFF),
		6, math.Nextafter32(6, 7), math.Nextafter32(6, 0), -6,
	}
	x := randInput(int64(61+n), n)
	for i := 0; i < n; i += 2 {
		x.Data[i] = edges[(i/2)%len(edges)]
	}
	return x
}

// TestActivationForwardMatchesInfer pins ReLU and ReLU6 Forward bit for bit
// to ForwardInfer — non-finite inputs included: Layer
// promises it, and the engine-vs-pipeline gates only ever feed finite values —
// across lengths on both sides of the vector width and of the pool's split
// grain. Backward is pinned to the layers' defining masks (x > 0, resp.
// 0 < x < 6) on every non-NaN input; a NaN input gets gradient 0 from both.
func TestActivationForwardMatchesInfer(t *testing.T) {
	layers := []struct {
		name string
		l    Layer
		pass func(v float32) bool
	}{
		{"relu", NewReLU(), func(v float32) bool { return v > 0 }},
		{"relu6", NewReLU6(), func(v float32) bool { return v > 0 && v < 6 }},
	}
	for _, lc := range layers {
		for _, n := range []int{0, 1, 7, 8, 9, elemGrain - 1, elemGrain + 1, 4*elemGrain + 3} {
			x := activationEdgeInput(n)
			xBits := x.Clone()
			ar := tensor.NewArena()
			in := ar.Alloc(n)
			copy(in.Data, x.Data)
			want := lc.l.ForwardInfer(in, ar)
			name := fmt.Sprintf("%s n=%d", lc.name, n)
			y := lc.l.Forward(tensor.NewArena(), x)
			for i, v := range y.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s: Forward(%v) = %v (%#x), ForwardInfer %v (%#x)", name, x.Data[i],
						v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
				}
				if math.Float32bits(x.Data[i]) != math.Float32bits(xBits.Data[i]) {
					t.Fatalf("%s: Forward wrote its input at %d", name, i)
				}
			}
			grad := randInput(int64(62+n), n)
			dx := lc.l.Backward(tensor.NewArena(), grad)
			for i, v := range x.Data {
				var wantBits uint32 // +0: blocked, and the NaN row
				if lc.pass(v) {
					wantBits = math.Float32bits(grad.Data[i])
				}
				if got := math.Float32bits(dx.Data[i]); got != wantBits {
					t.Fatalf("%s n=%d: Backward at x=%v: %#x, want %#x", lc.name, n, v, got, wantBits)
				}
			}
		}
	}
}

// sgdStepScalar is SGD.Step as it stood before the update was split over the
// pool — one serial loop, the weight-decay test inside it — kept verbatim as
// the reference for TestOptimizerKernelsMatchLoop and TestSGDStepSpansParams.
func sgdStepScalar(lr, mu, wd float32, w, grad, v []float32) {
	for i := range w {
		g := grad[i]
		if wd != 0 {
			g += wd * w[i]
		}
		v[i] = mu*v[i] + g
		w[i] -= lr * v[i]
	}
}

// TestSGDStepMatchesScalarReference requires SGD.Step to reproduce the serial
// scalar update bit for bit — with and without weight decay and momentum,
// for parameter lengths on both sides of the split grain, over two steps so
// the second one reads a non-zero velocity.
func TestSGDStepMatchesScalarReference(t *testing.T) {
	const lr = float32(0.05)
	for _, wd := range []float64{0, 1e-4} {
		for _, mu := range []float64{0, 0.9} {
			var params []*Param
			var refW, refV [][]float32
			for pi, n := range []int{0, 1, 9, elemGrain - 1, elemGrain, elemGrain + 1, 3*elemGrain + 5} {
				p := newParam(fmt.Sprintf("p%d", pi), n)
				tensor.NewRNG(int64(71+pi)).FillNormal(p.W, 0, 1)
				params = append(params, p)
				refW = append(refW, append([]float32(nil), p.W.Data...))
				refV = append(refV, make([]float32, n))
			}
			opt := NewSGD(float64(lr), mu, wd)
			for step := 0; step < 2; step++ {
				for pi, p := range params {
					tensor.NewRNG(int64(81+10*step+pi)).FillNormal(p.Grad, 0, 1)
					sgdStepScalar(lr, float32(mu), float32(wd), refW[pi], p.Grad.Data, refV[pi])
				}
				opt.Step(params)
				for pi, p := range params {
					for i, v := range p.W.Data {
						if math.Float32bits(v) != math.Float32bits(refW[pi][i]) {
							t.Fatalf("wd=%v mu=%v step %d: %s[%d] = %v, scalar reference %v",
								wd, mu, step, p.Name, i, v, refW[pi][i])
						}
					}
				}
			}
		}
	}
}
