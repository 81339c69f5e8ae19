package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor"
)

// maxPoolScalar is MaxPool2D.Forward's loop as it stood before the 2×2 window
// moved to the row kernel: every window scanned kh-major, kw-minor with
// `v > best`, the flat input index of the winner recorded alongside.
func maxPoolScalar(k int, x *tensor.Tensor) (*tensor.Tensor, []int32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := h/k, w/k
	y := tensor.New(n, c, outH, outW)
	arg := make([]int32, y.Len())
	for p := 0; p < n*c; p++ {
		inBase, outBase := p*h*w, p*outH*outW
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				best := float32(0)
				bestAt := -1
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						at := inBase + (oh*k+kh)*w + ow*k + kw
						if v := x.Data[at]; bestAt < 0 || v > best {
							best, bestAt = v, at
						}
					}
				}
				y.Data[outBase+oh*outW+ow] = best
				arg[outBase+oh*outW+ow] = int32(bestAt)
			}
		}
	}
	return y, arg
}

// TestMaxPoolForwardMatchesScalar holds MaxPool2D.Forward, in both modes, and
// ForwardInfer to the scalar loop's values bit for bit, and the train-mode
// argmaxes to its winners, on inputs built to make the comparisons matter —
// NaN as a window's first tap and as a later one, +0 against −0 in either
// order, equal maxima, ±Inf — at odd and even H and W, widths on both sides of
// the vector kernel's eight outputs, K = 2 and K = 3; then that Backward
// routes a gradient to exactly those winners.
func TestMaxPoolForwardMatchesScalar(t *testing.T) {
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	specials := []float32{nan, negZero, 0, 1, 1, -inf, inf, -2}
	for _, k := range []int{2, 3} {
		for _, h := range []int{2, 3, 5, 8} {
			for _, w := range []int{2, 3, 7, 16, 17, 35} {
				if h < k || w < k {
					continue
				}
				name := fmt.Sprintf("k%d_%dx%d", k, h, w)
				x := randInput(int64(7*h+w), 2, 3, h, w)
				// Every other window is filled from the specials, rotated by
				// the window's position so each value meets each tap.
				for p := 0; p < 6; p++ {
					for oh := 0; oh < h/k; oh++ {
						for ow := p % 2; ow < w/k; ow += 2 {
							for tap := 0; tap < k*k; tap++ {
								x.Data[p*h*w+(oh*k+tap/k)*w+ow*k+tap%k] = specials[(tap+oh+ow/2+p)%len(specials)]
							}
						}
					}
				}
				want, wantArg := maxPoolScalar(k, x)
				pool := NewMaxPool2D(k)
				check := func(what string, got *tensor.Tensor) {
					t.Helper()
					if !got.SameShape(want) {
						t.Fatalf("%s: %s shape %v, want %v", name, what, got.Shape, want.Shape)
					}
					for i, v := range got.Data {
						if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
							t.Fatalf("%s: %s[%d] = %v (%#x), scalar loop %v (%#x)", name, what, i,
								v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
				check("eval Forward", pool.Forward(x, false))
				ar := tensor.NewArena()
				check("ForwardInfer", pool.ForwardInfer(ar.Wrap(x.Data, x.Shape...), ar))
				check("train Forward", pool.Forward(x, true))
				for i, a := range pool.cachedArg {
					if a != wantArg[i] {
						t.Fatalf("%s: argmax[%d] = %d, scalar loop %d", name, i, a, wantArg[i])
					}
				}
				grad := randInput(int64(h+w), want.Shape...)
				wantDx := tensor.New(x.Shape...)
				for i, a := range wantArg {
					wantDx.Data[a] += grad.Data[i]
				}
				for i, v := range pool.Backward(grad).Data {
					if math.Float32bits(v) != math.Float32bits(wantDx.Data[i]) {
						t.Fatalf("%s: Backward dx[%d] = %v, want %v", name, i, v, wantDx.Data[i])
					}
				}
			}
		}
	}
}

// BenchmarkMaxPoolForward times the VGG16/4 stage-1 pool (16 channels of
// 32×32, batch 32) in both modes; train mode adds the argmax derivation.
func BenchmarkMaxPoolForward(b *testing.B) {
	x := randInput(1, 32, 16, 32, 32)
	for _, mode := range []struct {
		name  string
		train bool
	}{{"train", true}, {"eval", false}} {
		b.Run(mode.name, func(b *testing.B) {
			pool := NewMaxPool2D(2)
			b.SetBytes(int64(4 * x.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Forward(x, mode.train)
			}
		})
	}
}
