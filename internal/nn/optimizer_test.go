package nn

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// adamStepScalar is Adam.Step as it stood before the update was split over
// the pool — one serial loop per parameter — kept as the reference for
// TestAdamStepMatchesScalarReference, with the weight decay tensor.AdamStep
// takes as an operand.
func adamStepScalar(o *Adam, t int, wd float32, w, grad, m, v []float32) {
	bc1 := 1 - math.Pow(o.Beta1, float64(t))
	bc2 := 1 - math.Pow(o.Beta2, float64(t))
	b1, b2 := float32(o.Beta1), float32(o.Beta2)
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
// serial scalar update bit for bit, for parameter lengths on both sides of
// the split grain, over three steps so the moments and both bias corrections
// are exercised past their first values.
func TestAdamStepMatchesScalarReference(t *testing.T) {
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
	for step := 1; step <= 3; step++ {
		for pi, p := range params {
			tensor.NewRNG(int64(81+10*step+pi)).FillNormal(p.Grad, 0, 1)
			adamStepScalar(opt, step, 0, refW[pi], p.Grad.Data, refM[pi], refV[pi])
		}
		opt.Step(params)
		for pi, p := range params {
			for i, v := range p.W.Data {
				if math.Float32bits(v) != math.Float32bits(refW[pi][i]) {
					t.Fatalf("step %d: %s[%d] = %v, scalar reference %v", step, p.Name, i, v, refW[pi][i])
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
// 1 to within rounding. Adam.Step has no weight decay, so the decayed Adam
// rows call tensor.AdamStep directly. The optimizer state starts finite, so each NaN result
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
					opt.t = step - 1
					opt.m[p], opt.v[p] = m, v
					adamStepScalar(opt, step, float32(wd), refW, p.Grad.Data, refM, refV)
					if wd == 0 {
						opt.Step([]*Param{p})
					} else {
						bc1 := 1 - math.Pow(opt.Beta1, float64(step))
						bc2 := 1 - math.Pow(opt.Beta2, float64(step))
						tensor.AdamStep(p.W.Data, p.Grad.Data, m.Data, v.Data, opt.LR, opt.Eps, bc1, bc2,
							float32(opt.Beta1), float32(opt.Beta2), float32(wd))
					}
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

// clipGradNormChain is ClipGradNorm as it stood before the blocked sum: one
// serial float64 chain of the squares in parameter order. It is the reference
// TestClipGradNormMatchesSerialChain holds the certified sum to.
func clipGradNormChain(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// TestClipGradNormMatchesSerialChain requires ClipGradNorm to leave every
// gradient with the serial chain's bits, on every kernel set: parameter
// lists of 1 to over 2 M elements (blocks cut inside parameters), gradients
// that are normal, spread over twenty decades, all zero (norm 0), or hold a
// NaN, +Inf or −Inf, and maxNorm at the chain's norm (where the certificate
// must fail and the chain run), 1 and 2 ulps either side of it, and a decade
// either side. Where the certificate holds, the returned norm is within its
// bound of the chain's; where it fails, it is the chain's.
func TestClipGradNormMatchesSerialChain(t *testing.T) {
	lists := [][]int{{1}, {15}, {16, 17}, {clipBlock - 1, 2, clipBlock + 1}, {3, 2<<20 + 5, 9}}
	fills := []struct {
		name string
		fill func(g []float32, seed int64)
	}{
		{"normal", func(g []float32, seed int64) { tensor.NewRNG(seed).FillNormal(tensor.FromSlice(g, len(g)), 0, 1e-3) }},
		{"wide", func(g []float32, seed int64) {
			rng := tensor.NewRNG(seed)
			for i := range g {
				g[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
			}
		}},
		{"zero", func(g []float32, _ int64) { clear(g) }},
		{"nan", func(g []float32, seed int64) {
			tensor.NewRNG(seed).FillNormal(tensor.FromSlice(g, len(g)), 0, 1)
			g[len(g)/2] = float32(math.NaN())
		}},
		{"+inf", func(g []float32, seed int64) {
			tensor.NewRNG(seed).FillNormal(tensor.FromSlice(g, len(g)), 0, 1)
			g[len(g)-1] = float32(math.Inf(1))
		}},
		{"-inf", func(g []float32, seed int64) {
			tensor.NewRNG(seed).FillNormal(tensor.FromSlice(g, len(g)), 0, 1)
			g[0] = float32(math.Inf(-1))
		}},
	}
	kernelSets(t, func(t *testing.T) {
		a := tensor.NewArena()
		for _, sizes := range lists {
			var want []*Param
			total := 0
			for _, n := range sizes {
				want = append(want, newParam("g", n))
				total += n
			}
			for _, f := range fills {
				for i, p := range want {
					f.fill(p.Grad.Data, int64(100*i+len(sizes)))
				}
				orig := cloneGrads(want)
				r := clipGradNormChain(orig, math.Inf(1)) // the chain's norm; clips nothing
				for _, c := range []struct {
					name    string
					maxNorm float64
				}{
					{"at", r}, {"-1ulp", math.Nextafter(r, 0)}, {"+1ulp", math.Nextafter(r, math.Inf(1))},
					{"-2ulp", math.Nextafter(math.Nextafter(r, 0), 0)}, {"+2ulp", math.Nextafter(math.Nextafter(r, math.Inf(1)), math.Inf(1))},
					{"below", r / 10}, {"above", r * 10},
				} {
					what := fmt.Sprintf("%v %s maxNorm %s", sizes, f.name, c.name)
					ref, got := cloneGrads(orig), cloneGrads(orig)
					p := blockedSumSquares(a, got, total)
					certified := clipCertified(p, total, c.maxNorm)
					finite := !math.IsNaN(p) && !math.IsInf(p, 0)
					switch {
					case c.name == "at" && r > 0 && certified:
						t.Errorf("%s: certified a sum at the threshold", what)
					case (c.name == "below" || c.name == "above") && finite && !certified:
						t.Errorf("%s: a decade from the threshold fell back", what)
					}
					wantNorm := clipGradNormChain(ref, c.maxNorm)
					norm := ClipGradNorm(a, got, c.maxNorm)
					for pi := range ref {
						for j, w := range ref[pi].Grad.Data {
							if g := got[pi].Grad.Data[j]; math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("%s: param %d [%d] = %#08x, chain %#08x", what, pi, j, math.Float32bits(g), math.Float32bits(w))
							}
						}
					}
					bound := 4 * float64(total+1) * 0x1p-53 * wantNorm
					if certified && math.Abs(norm-wantNorm) > bound || !certified && math.Float64bits(norm) != math.Float64bits(wantNorm) {
						t.Errorf("%s: norm %v, chain %v (certified %v)", what, norm, wantNorm, certified)
					}
				}
			}
		}
	})
}

// cloneGrads returns parameters holding copies of ps's gradients.
func cloneGrads(ps []*Param) []*Param {
	out := make([]*Param, len(ps))
	for i, p := range ps {
		out[i] = newParam(p.Name, len(p.Grad.Data))
		copy(out[i].Grad.Data, p.Grad.Data)
	}
	return out
}

// TestSGDStepSpansParams requires one SGD.Step over a list of parameters,
// whose fan-out cuts ranges across parameter edges, to give each parameter
// the bits of its own scalar loop.
func TestSGDStepSpansParams(t *testing.T) {
	var params []*Param
	var refW, refV [][]float32
	opt := NewSGD(0.05, 0.9, 1e-4)
	for pi, n := range []int{0, 1, 9, elemGrain - 1, elemGrain, elemGrain + 1, 3*elemGrain + 5} {
		p := newParam("p", n)
		rng := tensor.NewRNG(int64(pi + 1))
		rng.FillNormal(p.W, 0, 1)
		optimizerGrad(p.Grad.Data, int64(pi+2))
		v := tensor.New(n)
		rng.FillNormal(v, 0, 0.1)
		opt.velocity[p] = v
		params = append(params, p)
		refW, refV = append(refW, slicesClone(p.W.Data)), append(refV, slicesClone(v.Data))
	}
	for pi, p := range params {
		sgdStepScalar(0.05, 0.9, 1e-4, refW[pi], p.Grad.Data, refV[pi])
	}
	opt.Step(params)
	for pi, p := range params {
		for i := range p.W.Data {
			if math.Float32bits(p.W.Data[i]) != math.Float32bits(refW[pi][i]) ||
				math.Float32bits(opt.velocity[p].Data[i]) != math.Float32bits(refV[pi][i]) {
				t.Fatalf("param %d [%d]: w %v v %v, loop %v %v", pi, i, p.W.Data[i], opt.velocity[p].Data[i], refW[pi][i], refV[pi][i])
			}
		}
	}
}
