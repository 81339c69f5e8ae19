package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// adamStepScalar is Adam.Step as it stood before the update was split over
// the pool — one serial loop per parameter — kept verbatim as the reference
// for TestAdamStepMatchesScalarReference.
func adamStepScalar(o *Adam, t int, w, grad, m, v []float32) {
	bc1 := 1 - math.Pow(o.Beta1, float64(t))
	bc2 := 1 - math.Pow(o.Beta2, float64(t))
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
	wd := float32(o.WeightDecay)
	for i := range w {
		g := grad[i]
		if wd != 0 {
			g += wd * w[i]
		}
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		w[i] -= float32(o.LR * mhat / (math.Sqrt(vhat) + o.Eps))
	}
}

// TestAdamStepMatchesScalarReference requires Adam.Step to reproduce the
// serial scalar update bit for bit — with and without weight decay, for
// parameter lengths on both sides of the split grain, over three steps so the
// moments and both bias corrections are exercised past their first values.
func TestAdamStepMatchesScalarReference(t *testing.T) {
	for _, wd := range []float64{0, 1e-3} {
		var params []*Param
		var refW, refM, refV [][]float32
		for pi, n := range []int{0, 1, 9, elemGrain - 1, elemGrain, elemGrain + 1, 3*elemGrain + 5} {
			p := newParam(fmt.Sprintf("p%d", pi), n)
			tensor.NewRNG(int64(71+pi)).FillNormal(p.W, 0, 1)
			params = append(params, p)
			refW = append(refW, append([]float32(nil), p.W.Data...))
			refM = append(refM, make([]float32, n))
			refV = append(refV, make([]float32, n))
		}
		opt := NewAdam(0.002)
		opt.WeightDecay = wd
		for step := 1; step <= 3; step++ {
			for pi, p := range params {
				tensor.NewRNG(int64(81+10*step+pi)).FillNormal(p.Grad, 0, 1)
				adamStepScalar(opt, step, refW[pi], p.Grad.Data, refM[pi], refV[pi])
			}
			opt.Step(params)
			for pi, p := range params {
				for i, v := range p.W.Data {
					if math.Float32bits(v) != math.Float32bits(refW[pi][i]) {
						t.Fatalf("wd=%v step %d: %s[%d] = %v, scalar reference %v", wd, step, p.Name, i, v, refW[pi][i])
					}
				}
			}
		}
	}
}

// kernelSets runs body once per kernel set a build can serve with: the
// 512-bit and the AVX2 kernels (each skipped where the machine lacks it) and
// the portable Go twins.
func kernelSets(t *testing.T, body func(t *testing.T)) {
	for _, set := range []struct {
		name  string
		force func(testing.TB)
	}{
		{"avx512", func(tb testing.TB) { tensortest.Gemm512(tb, true) }},
		{"avx2", func(tb testing.TB) {
			if tensor.KernelISA() == "portable" {
				tb.Skip("no AVX2 kernels on this machine")
			}
			tensortest.Gemm512(tb, false)
		}},
		{"portable", tensortest.Portable},
	} {
		t.Run(set.name, func(t *testing.T) {
			set.force(t)
			body(t)
		})
	}
}

// optimizerGrad fills g with normal values salted with the operands an
// elementwise kernel can get wrong: NaNs with payloads of either sign, ±0,
// ±Inf, and subnormals of either sign, at positions that land in the vector
// bodies and in the twins' tails.
func optimizerGrad(g []float32, seed int64) {
	tensor.NewRNG(seed).FillNormal(tensor.FromSlice(g, len(g)), 0, 1)
	special := []uint32{0x7fa00001, 0xffc12345, 0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x00400000}
	for i := range g {
		if i%7 == 3 {
			g[i] = math.Float32frombits(special[(i/7)%len(special)])
		}
	}
}

// TestOptimizerKernelsMatchLoop requires tensor.AdamStep and tensor.SGDStep,
// through Adam.Step and SGD.Step, to give their scalar loops' bits on every
// kernel set: every length 0…70 (the 16- and 8-wide bodies and every tail)
// and one long row, gradients salted by optimizerGrad, weight decay off and
// on, and Adam at step 1 and at step 10 000, where its bias corrections are
// 1 to within rounding. The optimizer state starts finite, so each NaN result
// has one NaN source and one payload.
func TestOptimizerKernelsMatchLoop(t *testing.T) {
	lengths := make([]int, 0, 72)
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 3*elemGrain+37)
	check := func(t *testing.T, what string, got, want []float32, grad []float32) {
		t.Helper()
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %#08x, loop %#08x (grad %#08x)", what, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(grad[i]))
			}
		}
	}
	kernelSets(t, func(t *testing.T) {
		for _, wd := range []float64{0, 1e-3} {
			for _, n := range lengths {
				p := newParam("p", n)
				rng := tensor.NewRNG(int64(n + 7))
				rng.FillNormal(p.W, 0, 1)
				optimizerGrad(p.Grad.Data, int64(n+3))
				for _, step := range []int{1, 10_000} {
					m, v := tensor.New(n), tensor.New(n)
					rng.FillNormal(m, 0, 0.1)
					rng.FillUniform(v, 0, 0.1)
					refW, refM, refV := slicesClone(p.W.Data), slicesClone(m.Data), slicesClone(v.Data)
					opt := NewAdam(0.002)
					opt.WeightDecay = wd
					opt.t = step - 1
					opt.m[p], opt.v[p] = m, v
					adamStepScalar(opt, step, refW, p.Grad.Data, refM, refV)
					opt.Step([]*Param{p})
					what := fmt.Sprintf("adam wd=%v t=%d n=%d: ", wd, step, n)
					check(t, what+"w", p.W.Data, refW, p.Grad.Data)
					check(t, what+"m", m.Data, refM, p.Grad.Data)
					check(t, what+"v", v.Data, refV, p.Grad.Data)
				}
				vel := tensor.New(n)
				rng.FillNormal(vel, 0, 0.1)
				refW, refV := slicesClone(p.W.Data), slicesClone(vel.Data)
				sgd := NewSGD(0.05, 0.9, wd)
				sgd.velocity[p] = vel
				sgdStepScalar(0.05, 0.9, float32(wd), refW, p.Grad.Data, refV)
				sgd.Step([]*Param{p})
				what := fmt.Sprintf("sgd wd=%v n=%d: ", wd, n)
				check(t, what+"w", p.W.Data, refW, p.Grad.Data)
				check(t, what+"velocity", vel.Data, refV, p.Grad.Data)
			}
		}
	})
}

func slicesClone(x []float32) []float32 { return append([]float32(nil), x...) }
