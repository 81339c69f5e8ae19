package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor"
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
