// Int8 layer tests live in an external test package so they can use
// internal/quant (which imports nn) for realistic calibration without an
// import cycle.
package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"nshd/internal/nn"
	"nshd/internal/quant"
	"nshd/internal/tensor"
)

// pow2Conv builds a float Conv2D and its int8 twin with power-of-two scales
// everywhere, so every multiplication in both datapaths is exact in float32
// and the two must agree bit-for-bit after quantization.
func pow2Conv(t *testing.T, rng *rand.Rand, inC, outC, k, stride, pad int, relu bool) (*nn.Conv2D, *nn.Int8Conv2D, nn.Int8Quant) {
	t.Helper()
	const (
		sx = float32(0.5)  // input scale
		sw = float32(0.25) // weight scale (all channels)
		sy = float32(4.0)  // output scale
		zx = uint8(30)
		zy = uint8(12)
	)
	kdim := inC * k * k
	w8 := make([]int8, outC*kdim)
	for i := range w8 {
		w8[i] = int8(rng.Intn(255) - 127)
	}
	conv := nn.NewConv2D(tensor.NewRNG(1), inC, outC, k, stride, pad, true)
	for i, v := range w8 {
		conv.Weight.W.Data[i] = float32(v) * sw
	}
	bias32 := make([]int32, outC)
	scales := make([]float32, outC)
	wsum := make([]int32, outC)
	for oc := 0; oc < outC; oc++ {
		for j := 0; j < kdim; j++ {
			wsum[oc] += int32(w8[oc*kdim+j])
		}
		b32 := int32(rng.Intn(2001) - 1000)
		conv.Bias.W.Data[oc] = float32(b32) * sx * sw
		bias32[oc] = b32 - int32(zx)*wsum[oc]
		scales[oc] = sx * sw / sy
	}
	q := nn.Int8Quant{InScale: sx, InZero: zx, OutScale: sy, OutZero: zy, ClampLo: 0, ClampHi: 255}
	if relu {
		q.ClampLo = zy
	}
	return conv, nn.NewInt8Conv2D(inC, outC, k, k, stride, pad, w8, bias32, scales, q), q
}

// TestInt8Conv2DBitExactPow2 pins the conv datapath (im2col + int8 GEMM +
// bias + requant + clamp) against the float reference with power-of-two
// scales: quantizing the float output must reproduce the int8 output
// exactly, including the fused-ReLU clamp and zero-point padding.
func TestInt8Conv2DBitExactPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		inC, outC, k, stride, pad int
		relu                      bool
	}{
		{3, 8, 3, 1, 1, true},
		{3, 8, 3, 1, 1, false},
		{4, 6, 1, 1, 0, true}, // pointwise elision path
		{2, 5, 3, 2, 1, true},
	}
	for _, c := range cases {
		conv, qconv, q := pow2Conv(t, rng, c.inC, c.outC, c.k, c.stride, c.pad, c.relu)
		n, h, w := 2, 9, 7
		xq := tensor.NewQTensor(q.InScale, q.InZero, n, c.inC, h, w)
		xf := tensor.New(n, c.inC, h, w)
		for i := range xq.Data {
			xq.Data[i] = uint8(rng.Intn(256))
			xf.Data[i] = q.InScale * float32(int32(xq.Data[i])-int32(q.InZero))
		}
		ar := tensor.NewArena()
		yf := conv.ForwardInfer(xf, ar)
		if c.relu {
			for i, v := range yf.Data {
				if v < 0 {
					yf.Data[i] = 0
				}
			}
		}
		yq := qconv.ForwardInt8(xq, tensor.NewArena())
		if yq.Scale != q.OutScale || yq.Zero != q.OutZero {
			t.Fatalf("output qparams (%g, %d)", yq.Scale, yq.Zero)
		}
		for i, v := range yf.Data {
			want := tensor.RoundAway(v/q.OutScale) + int32(q.OutZero)
			lo, hi := int32(q.ClampLo), int32(q.ClampHi)
			if want < lo {
				want = lo
			}
			if want > hi {
				want = hi
			}
			if int32(yq.Data[i]) != want {
				t.Fatalf("case %+v elem %d: int8 %d, float-quantized %d (float %g)", c, i, yq.Data[i], want, v)
			}
		}
	}
}

// TestInt8Conv2DCalibrated runs the realistic pipeline — quant.QuantizeChannels
// weights, observer-calibrated activation ranges — and checks the dequantized
// int8 output stays within the quantization error budget of the float output.
func TestInt8Conv2DCalibrated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inC, outC, k := 3, 16, 3
	conv := nn.NewConv2D(tensor.NewRNG(2), inC, outC, k, 1, 1, true)
	for i := range conv.Bias.W.Data {
		conv.Bias.W.Data[i] = rng.Float32()*0.2 - 0.1
	}
	n, h, w := 4, 12, 12
	xf := tensor.New(n, inC, h, w)
	for i := range xf.Data {
		xf.Data[i] = rng.Float32()*4 - 2
	}
	yf := conv.ForwardInfer(xf, tensor.NewArena())

	// Calibrate activations, quantize weights, fold bias.
	var xo, yo quant.MinMaxObserver
	xo.Observe(xf.Data)
	yo.Observe(yf.Data)
	sx, zx := quant.ActQuant(xo.Range())
	sy, zy := quant.ActQuant(yo.Range())
	wq := quant.QuantizeChannels(conv.Weight.W)
	kdim := wq.Cols
	bias32 := make([]int32, outC)
	scales := make([]float32, outC)
	for oc := 0; oc < outC; oc++ {
		var wsum int32
		for j := 0; j < kdim; j++ {
			wsum += int32(wq.Data[oc*kdim+j])
		}
		bias32[oc] = tensor.RoundAway(conv.Bias.W.Data[oc]/(sx*wq.Scales[oc])) - int32(zx)*wsum
		scales[oc] = sx * wq.Scales[oc] / sy
	}
	qc := nn.NewInt8Conv2D(inC, outC, k, k, 1, 1, wq.Data, bias32, scales,
		nn.Int8Quant{InScale: sx, InZero: zx, OutScale: sy, OutZero: zy, ClampLo: 0, ClampHi: 255})

	xq := tensor.NewQTensor(sx, zx, n, inC, h, w)
	tensor.QuantizeU8(xq.Data, xf.Data, sx, zx)
	yq := qc.ForwardInt8(xq, tensor.NewArena())

	// Error budget: output rounding (sy/2) plus input and weight quantization
	// error propagated through the dot product.
	var worstBudget float64
	var sumAbs, sumErr float64
	for oc := 0; oc < outC; oc++ {
		var wAbs float64
		for j := 0; j < kdim; j++ {
			wAbs += math.Abs(float64(wq.Data[oc*kdim+j]) * float64(wq.Scales[oc]))
		}
		budget := float64(sy)/2 + wAbs*float64(sx)/2 + float64(wq.Scales[oc])/2*float64(kdim)*2.0
		if budget > worstBudget {
			worstBudget = budget
		}
	}
	for i, v := range yf.Data {
		deq := float64(yq.Scale) * float64(int32(yq.Data[i])-int32(yq.Zero))
		err := math.Abs(deq - float64(v))
		sumErr += err
		sumAbs += math.Abs(float64(v))
		if err > worstBudget+1e-3 {
			t.Fatalf("elem %d: int8 %g vs float %g, error %g exceeds budget %g", i, deq, v, err, worstBudget)
		}
	}
	if rel := sumErr / (sumAbs/float64(len(yf.Data)) + 1e-9) / float64(len(yf.Data)); rel > 0.05 {
		t.Fatalf("mean relative error %g too high for calibrated int8", rel)
	}
}

func TestInt8LinearBitExactPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const (
		in, out = 37, 11
		sx      = float32(0.25)
		sw      = float32(0.5)
		sy      = float32(2.0)
		zx      = uint8(100)
		zy      = uint8(7)
	)
	w8 := make([]int8, out*in)
	for i := range w8 {
		w8[i] = int8(rng.Intn(255) - 127)
	}
	lin := nn.NewLinear(tensor.NewRNG(3), in, out, true)
	for i, v := range w8 {
		lin.Weight.W.Data[i] = float32(v) * sw
	}
	bias32 := make([]int32, out)
	scales := make([]float32, out)
	for oc := 0; oc < out; oc++ {
		var wsum int32
		for j := 0; j < in; j++ {
			wsum += int32(w8[oc*in+j])
		}
		b32 := int32(rng.Intn(401) - 200)
		lin.Bias.W.Data[oc] = float32(b32) * sx * sw
		bias32[oc] = b32 - int32(zx)*wsum
		scales[oc] = sx * sw / sy
	}
	q := nn.Int8Quant{InScale: sx, InZero: zx, OutScale: sy, OutZero: zy, ClampLo: 0, ClampHi: 255}
	qlin := nn.NewInt8Linear(in, out, w8, bias32, scales, q)

	n := 3
	xq := tensor.NewQTensor(sx, zx, n, in)
	xf := tensor.New(n, in)
	for i := range xq.Data {
		xq.Data[i] = uint8(rng.Intn(256))
		xf.Data[i] = sx * float32(int32(xq.Data[i])-int32(zx))
	}
	yf := lin.ForwardInfer(xf, tensor.NewArena())
	yq := qlin.ForwardInt8(xq, tensor.NewArena())
	for i, v := range yf.Data {
		want := tensor.RoundAway(v/sy) + int32(zy)
		if want < 0 {
			want = 0
		}
		if want > 255 {
			want = 255
		}
		if int32(yq.Data[i]) != want {
			t.Fatalf("elem %d: int8 %d, float-quantized %d (float %g)", i, yq.Data[i], want, v)
		}
	}
}

// TestInt8MaxPoolExact: max pooling commutes with the (monotone)
// dequantization, so pooling in u8 must match the float pool bit-for-bit
// after dequantizing.
func TestInt8MaxPoolExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, c, h, w := 2, 3, 8, 6
	sx, zx := float32(0.1), uint8(40)
	xq := tensor.NewQTensor(sx, zx, n, c, h, w)
	xf := tensor.New(n, c, h, w)
	for i := range xq.Data {
		xq.Data[i] = uint8(rng.Intn(256))
		xf.Data[i] = sx * float32(int32(xq.Data[i])-int32(zx))
	}
	pool := &nn.MaxPool2D{K: 2}
	yf := pool.ForwardInfer(xf, tensor.NewArena())
	yq := (&nn.Int8MaxPool2D{K: 2}).ForwardInt8(xq, tensor.NewArena())
	if yq.Scale != sx || yq.Zero != zx {
		t.Fatalf("max pool must pass qparams through, got (%g, %d)", yq.Scale, yq.Zero)
	}
	for i := range yf.Data {
		deq := sx * float32(int32(yq.Data[i])-int32(zx))
		if deq != yf.Data[i] {
			t.Fatalf("elem %d: int8 pool %g, float pool %g", i, deq, yf.Data[i])
		}
	}
}

func TestInt8FlattenView(t *testing.T) {
	xq := tensor.NewQTensor(0.5, 3, 2, 3, 4, 4)
	for i := range xq.Data {
		xq.Data[i] = uint8(i)
	}
	y := nn.Int8Flatten{}.ForwardInt8(xq, tensor.NewArena())
	if y.Rank() != 2 || y.Shape[0] != 2 || y.Shape[1] != 48 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	if &y.Data[0] != &xq.Data[0] {
		t.Fatal("flatten must be a view, not a copy")
	}
	if y.Scale != 0.5 || y.Zero != 3 {
		t.Fatalf("flatten qparams (%g, %d)", y.Scale, y.Zero)
	}
}

// TestInt8InputMismatchPanics: feeding a tensor quantized with different
// parameters than the layer was folded for must fail loudly.
func TestInt8InputMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, qconv, q := pow2Conv(t, rng, 2, 3, 3, 1, 1, false)
	xq := tensor.NewQTensor(q.InScale*2, q.InZero, 1, 2, 5, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched input qparams must panic")
		}
	}()
	qconv.ForwardInt8(xq, tensor.NewArena())
}
