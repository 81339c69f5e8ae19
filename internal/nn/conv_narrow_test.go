package nn

import (
	"fmt"
	"testing"

	"nshd/internal/tensor"
)

// TestConv2DKernelWiderThanMap runs the geometries ConvGeom.Validate accepts
// in which outer kernel taps never reach the image — a 5×5 on a 1×1 map, a
// 7×7 on 2×2 and on 3×3 — through Forward, ForwardInfer and Backward.
// Im2ColWindow used to slice out of range on them (an in-image column range
// not clamped to the output width). Forward values are held to the tap-by-tap
// scalar convolution; so are the gradients, read off the same oracle through
// the convolution's linearity in x and in W: the gradient of ⟨grad, y⟩ with
// respect to one input or weight element is ⟨grad, y⟩ of the convolution of
// that unit element, bias off.
func TestConv2DKernelWiderThanMap(t *testing.T) {
	for ci, tc := range []struct{ k, pad, size int }{{5, 2, 1}, {7, 3, 2}, {7, 2, 3}} {
		name := fmt.Sprintf("k%d_p%d_%dx%d", tc.k, tc.pad, tc.size, tc.size)
		conv := NewConv2D(tensor.NewRNG(int64(61+ci)), 2, 3, tc.k, 1, tc.pad, true)
		tensor.NewRNG(int64(62+ci)).FillNormal(conv.Bias.W, 0, 1)
		x := randInput(int64(63+ci), 2, 2, tc.size, tc.size)
		want := convForwardScalar(conv, x)
		near := func(what string, got, want *tensor.Tensor) {
			t.Helper()
			if !got.SameShape(want) {
				t.Fatalf("%s: %s shape %v, want %v", name, what, got.Shape, want.Shape)
			}
			for i, w := range want.Data {
				if !closeGrad(float64(got.Data[i]), float64(w), 1e-4) {
					t.Fatalf("%s: %s[%d] = %v, scalar reference %v", name, what, i, got.Data[i], w)
				}
			}
		}
		ar := tensor.NewArena()
		in := ar.Alloc(x.Shape...)
		copy(in.Data, x.Data)
		near("ForwardInfer", conv.ForwardInfer(in, ar), want)
		near("train Forward", conv.Forward(tensor.NewArena(), x), want)

		grad := randInput(int64(64+ci), want.Shape...)
		dw, db, dx := convBackwardGrads(conv, grad, func(g *tensor.Tensor) *tensor.Tensor { return conv.Backward(tensor.NewArena(), g) })

		// ⟨grad, conv(x)⟩ by the scalar oracle, for a probe conv without bias.
		probe := NewConv2D(tensor.NewRNG(1), 2, 3, tc.k, 1, tc.pad, false)
		inner := func(x *tensor.Tensor) float64 {
			var s float64
			for i, v := range convForwardScalar(probe, x).Data {
				s += float64(v) * float64(grad.Data[i])
			}
			return s
		}
		copy(probe.Weight.W.Data, conv.Weight.W.Data)
		unit := tensor.New(x.Shape...)
		for i := range unit.Data {
			unit.Data[i] = 1
			if w := inner(unit); !closeGrad(float64(dx.Data[i]), w, 1e-4) {
				t.Fatalf("%s: dx[%d] = %v, scalar reference %v", name, i, dx.Data[i], w)
			}
			unit.Data[i] = 0
		}
		probe.Weight.W.Zero()
		for i := range probe.Weight.W.Data {
			probe.Weight.W.Data[i] = 1
			if w := inner(x); !closeGrad(float64(dw.Data[i]), w, 1e-4) {
				t.Fatalf("%s: dW[%d] = %v, scalar reference %v", name, i, dw.Data[i], w)
			}
			probe.Weight.W.Data[i] = 0
		}
		hw := want.Shape[2] * want.Shape[3]
		for oc := 0; oc < conv.OutC; oc++ {
			var s float64
			for n := 0; n < x.Shape[0]; n++ {
				for _, v := range grad.Data[(n*conv.OutC+oc)*hw:][:hw] {
					s += float64(v)
				}
			}
			if !closeGrad(float64(db.Data[oc]), s, 1e-4) {
				t.Fatalf("%s: db[%d] = %v, want %v", name, oc, db.Data[oc], s)
			}
		}
	}
}
