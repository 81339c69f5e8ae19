package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// This file is an independent float64 reference for DepthwiseConv2D,
// BatchNorm2D, Conv2D and Linear, Forward and Backward, and for one batch
// step of hdlearn.Retrain: scalar loops straight from the definitions,
// sharing no code with the layers, the trainer or their kernels (tensor is
// imported for its Tensor type only). Every reference value comes with a
// magnitude T, Σ|terms| of its reduction, and the float32 layer must land
// within γₙ·T of it, where γₙ = n·u/(1−n·u), u = 2⁻²⁴, and n bounds the
// float32 roundings on the value's chain (Higham, "Accuracy and Stability of
// Numerical Algorithms", §3.1). Whatever order and grouping a kernel sums
// in, a sum of m rounded products is within γₘ₊₁·Σ|terms| of the exact one;
// a value built from such sums carries their bounds through first order.
// The float64 reference adds its own γₘ at 2⁻⁵³.

// gamma is γₙ for unit roundoff u.
func gamma(n int, u float64) float64 { return float64(n) * u / (1 - float64(n)*u) }

const (
	u32 = 0x1p-24
	u64 = 0x1p-53
)

// refVal is one reference value: v the float64 result, mag the Σ|terms| its
// error is bounded by, n the float32 roundings on its chain and m the terms
// the float64 reference summed.
type refVal struct {
	v, mag float64
	n, m   int
}

func (r refVal) bound() float64 { return (gamma(r.n, u32) + gamma(r.m+1, u64)) * r.mag }

// refDepthwise is a depthwise convolution of x [N, C, H, W] with w [C, k, k]
// at the given stride and zero padding, and its backward for the output
// gradient dy: y[n,c,oh,ow] = Σ w[c,kh,kw]·x[n,c,oh·s−p+kh, ow·s−p+kw] over
// the taps inside the map, dx the transpose of that map, dw[c,kh,kw] the sum
// over samples and outputs of dy·x.
func refDepthwise(x, w, dy *tensor.Tensor, k, stride, pad int) (y, dx, dw []refVal) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := (h+2*pad-k)/stride+1, (wd+2*pad-k)/stride+1
	at := func(t *tensor.Tensor, i, ch, r, col, rows, cols int) float64 {
		return float64(t.Data[((i*c+ch)*rows+r)*cols+col])
	}
	y = make([]refVal, n*c*oh*ow)
	dx = make([]refVal, n*c*h*wd)
	dw = make([]refVal, c*k*k)
	add := func(r *refVal, term float64) {
		r.v += term
		r.mag += math.Abs(term)
		r.m++
	}
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			for p := 0; p < oh; p++ {
				for q := 0; q < ow; q++ {
					yi := &y[((i*c+ch)*oh+p)*ow+q]
					g := at(dy, i, ch, p, q, oh, ow)
					for kh := 0; kh < k; kh++ {
						for kw := 0; kw < k; kw++ {
							r, col := p*stride-pad+kh, q*stride-pad+kw
							if r < 0 || r >= h || col < 0 || col >= wd {
								continue
							}
							wv := float64(w.Data[(ch*k+kh)*k+kw])
							xv := at(x, i, ch, r, col, h, wd)
							add(yi, wv*xv)
							add(&dx[((i*c+ch)*h+r)*wd+col], g*wv)
							add(&dw[(ch*k+kh)*k+kw], g*xv)
						}
					}
				}
			}
		}
	}
	// y's float32 chain is every tap from +0, each product rounded; dx and
	// dw round each product and add it once, dw's chunk sums once more.
	for i := range y {
		y[i].n = k*k + 1
	}
	for i := range dx {
		dx[i].n = dx[i].m + 1
	}
	for i := range dw {
		dw[i].n = dw[i].m + 2
	}
	return y, dx, dw
}

// refBatchNorm is training-mode batch normalization of x [N, C, H, W] per
// channel, with batch mean μ, biased variance σ², s = √(σ²+eps) and
// x̂ = (x−μ)/s: y = γ·x̂ + β, and its backward for dy:
// dβ = Σdy, dγ = Σdy·x̂, dx = γ/(m·s)·(m·dy − Σdy − x̂·Σdy·x̂) over the m = N·H·W
// values of the channel.
//
// The float32 layer's chains, counted in roundings: x̂ takes μ (1), x−μ (1),
// σ² (3: the squared difference and the quotient, on the difference's own
// rounding), σ²+eps (1), √ (1), 1/s (1) and the product (1), so x̂ is within
// γ₉·(|x|+mean|x|)/s (mean|x| ≥ |μ| also bounds the float64 sum's error);
// y adds γ·x̂ and +β (11). dγ sums dy·x̂ (x̂'s 9, then 1 to
// float32, 1 into the gradient); dβ rounds once to float32 and once into the
// gradient. dx: γ·(1/s)/m carries 1/s's 6 and two products (8); inside the
// parentheses m·dy (1), Σdy (2), x̂·Σdy·x̂ (9 + 11 + 1) and two subtractions
// (2), so 25 + 8 + 1 for the final product: 34.
func refBatchNorm(x, gamma, beta, dy *tensor.Tensor, eps float32) (y, dx, dgamma, dbeta []refVal) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw, m := h*w, n*h*w
	y, dx = make([]refVal, len(x.Data)), make([]refVal, len(x.Data))
	dgamma, dbeta = make([]refVal, c), make([]refVal, c)
	idx := func(i, ch, j int) int { return (i*c+ch)*hw + j }
	for ch := 0; ch < c; ch++ {
		var sum, sumAbs float64
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				sum += float64(x.Data[idx(i, ch, j)])
				sumAbs += math.Abs(float64(x.Data[idx(i, ch, j)]))
			}
		}
		mu := sum / float64(m)
		var vs float64
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				d := float64(x.Data[idx(i, ch, j)]) - mu
				vs += d * d
			}
		}
		s := math.Sqrt(vs/float64(m) + float64(eps))
		g, b := float64(gamma.Data[ch]), float64(beta.Data[ch])
		xhat := func(k int) (v, mag float64) {
			xv := float64(x.Data[k])
			return (xv - mu) / s, (math.Abs(xv) + sumAbs/float64(m)) / s
		}
		var sDy, sDyAbs, sDyX, sDyXAbs float64
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				k := idx(i, ch, j)
				xh, xmag := xhat(k)
				y[k] = refVal{v: g*xh + b, mag: math.Abs(g)*xmag + math.Abs(b), n: 11, m: 2 * m}
				d := float64(dy.Data[k])
				sDy += d
				sDyAbs += math.Abs(d)
				sDyX += d * xh
				sDyXAbs += math.Abs(d) * xmag
			}
		}
		dbeta[ch] = refVal{v: sDy, mag: sDyAbs, n: 2, m: m}
		dgamma[ch] = refVal{v: sDyX, mag: sDyXAbs, n: 11, m: 3 * m}
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				k := idx(i, ch, j)
				xh, xmag := xhat(k)
				d := float64(dy.Data[k])
				scale := math.Abs(g) / (float64(m) * s)
				dx[k] = refVal{
					v:   g / (float64(m) * s) * (float64(m)*d - sDy - xh*sDyX),
					mag: scale * (float64(m)*math.Abs(d) + sDyAbs + xmag*sDyXAbs),
					n:   34, m: 3 * m,
				}
			}
		}
	}
	return y, dx, dgamma, dbeta
}

// widths runs body at every kernel width the build has: the 512-bit kernels
// (skipped where they are not live), the 256-bit ones, and the Go twins the
// portable build serves with.
func widths(t *testing.T, body func(t *testing.T)) {
	t.Run("avx512", func(t *testing.T) { tensortest.Gemm512(t, true); body(t) })
	t.Run("avx2", func(t *testing.T) { tensortest.Gemm512(t, false); body(t) })
	t.Run("portable", func(t *testing.T) { tensortest.Portable(t); body(t) })
}

// within reports every value of got outside its reference's bound, at most
// five per name.
func within(t *testing.T, name string, got []float32, ref []refVal) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d values, reference has %d", name, len(got), len(ref))
	}
	bad := 0
	for i, r := range ref {
		if err := math.Abs(float64(got[i]) - r.v); !(err <= r.bound()) {
			if bad++; bad <= 5 {
				t.Errorf("%s[%d] = %g, reference %g: off by %.3g, bound γ%d·%.3g = %.3g",
					name, i, got[i], r.v, err, r.n, r.mag, r.bound())
			}
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d values out of bound in all", name, bad)
	}
}

func randTensor(rng *rand.Rand, mean, sd float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(mean + sd*rng.NormFloat64())
	}
	return t
}

// TestDepthwiseMatchesOracle: DepthwiseConv2D's Forward (y) and Backward (dx,
// and dw accumulated into a zeroed gradient) agree with refDepthwise within
// their bounds, for 3×3 and 5×5 filters at strides 1 and 2 over odd maps, at
// each kernel width. Six samples span two of Backward's gradient chunks.
func TestDepthwiseMatchesOracle(t *testing.T) {
	widths(t, func(t *testing.T) {
		for _, k := range []int{3, 5} {
			for _, stride := range []int{1, 2} {
				t.Run(fmt.Sprintf("k%d/s%d", k, stride), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(10*k + stride)))
					const n, c, h, w = 6, 5, 9, 11
					pad := k / 2
					d := nn.NewDepthwiseConv2D(tensor.NewRNG(1), c, k, stride, pad)
					copy(d.Weight.W.Data, randTensor(rng, 0, 0.5, c, k, k).Data)
					x := randTensor(rng, 0.2, 1, n, c, h, w)
					y := d.Forward(tensor.NewArena(), x)
					dy := randTensor(rng, 0, 1, y.Shape...)
					d.Weight.ZeroGrad()
					dx := d.Backward(tensor.NewArena(), dy)
					ry, rdx, rdw := refDepthwise(x, d.Weight.W, dy, k, stride, pad)
					within(t, "y", y.Data, ry)
					within(t, "dx", dx.Data, rdx)
					within(t, "dw", d.Weight.Grad.Data, rdw)
				})
			}
		}
	})
}

// TestBatchNormMatchesOracle: BatchNorm2D's training Forward (y) and Backward
// (dx, and dγ, dβ accumulated into zeroed gradients) agree with refBatchNorm
// within their bounds, at each kernel width, on channels whose means sit
// away from zero and with output gradients whose mean does too, so the
// backward's mean term is far above its bound.
func TestBatchNormMatchesOracle(t *testing.T) {
	widths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		const n, c, h, w = 3, 4, 5, 7
		bn := nn.NewBatchNorm2D(c)
		copy(bn.Gamma.W.Data, randTensor(rng, 1, 0.5, c).Data)
		copy(bn.Beta.W.Data, randTensor(rng, 0, 0.5, c).Data)
		x := randTensor(rng, 0, 1, n, c, h, w)
		for i := range x.Data {
			x.Data[i] = x.Data[i]*float32(1+i/(h*w)%c) + float32(i/(h*w)%c) - 1.5
		}
		y := bn.Forward(tensor.NewArena(), x)
		dy := randTensor(rng, 0.3, 1, y.Shape...)
		bn.Gamma.ZeroGrad()
		bn.Beta.ZeroGrad()
		dx := bn.Backward(tensor.NewArena(), dy)
		ry, rdx, rdg, rdb := refBatchNorm(x, bn.Gamma.W, bn.Beta.W, dy, bn.Eps)
		within(t, "y", y.Data, ry)
		within(t, "dx", dx.Data, rdx)
		within(t, "dgamma", bn.Gamma.Grad.Data, rdg)
		within(t, "dbeta", bn.Beta.Grad.Data, rdb)
	})
}

// refConv2D is a convolution of x [N, C, H, W] with w [O, C, k, k] and bias b
// [O] at the given stride and zero padding, and its backward for dy:
// y[n,o,p,q] = b[o] + Σ w[o,c,kh,kw]·x[n,c,p·s−pad+kh, q·s−pad+kw] over the taps
// inside the map, dx the transpose of that map, dw[o,c,kh,kw] the sum over
// samples and outputs of dy·x, db[o] the sum of dy over samples and outputs.
//
// The float32 chains: y sums its rounded products in some order (the taps
// outside the map are exact zeros) and adds the bias, so m+2 bounds them. dx
// is one sum over O of w·dy per tap (dcols), and the taps' sums added once
// each (col2im): O + taps + 1. dw sums each chunk's products, adds the chunk
// sums together and into the zeroed gradient; db does the same without the
// products. Both stay within m+2.
func refConv2D(x, w, b, dy *tensor.Tensor, k, stride, pad int) (y, dx, dw, db []refVal) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	o := w.Shape[0]
	oh, ow := (h+2*pad-k)/stride+1, (wd+2*pad-k)/stride+1
	y = make([]refVal, n*o*oh*ow)
	dx = make([]refVal, n*c*h*wd)
	dw = make([]refVal, o*c*k*k)
	db = make([]refVal, o)
	add := func(r *refVal, term float64) {
		r.v += term
		r.mag += math.Abs(term)
		r.m++
	}
	for i := 0; i < n; i++ {
		for oc := 0; oc < o; oc++ {
			for p := 0; p < oh; p++ {
				for q := 0; q < ow; q++ {
					yi := &y[((i*o+oc)*oh+p)*ow+q]
					add(yi, float64(b.Data[oc]))
					g := float64(dy.Data[((i*o+oc)*oh+p)*ow+q])
					add(&db[oc], g)
					for ch := 0; ch < c; ch++ {
						for kh := 0; kh < k; kh++ {
							for kw := 0; kw < k; kw++ {
								r, col := p*stride-pad+kh, q*stride-pad+kw
								if r < 0 || r >= h || col < 0 || col >= wd {
									continue
								}
								wi := ((oc*c+ch)*k+kh)*k + kw
								xi := ((i*c+ch)*h+r)*wd + col
								wv, xv := float64(w.Data[wi]), float64(x.Data[xi])
								add(yi, wv*xv)
								add(&dx[xi], g*wv)
								add(&dw[wi], g*xv)
							}
						}
					}
				}
			}
		}
	}
	for _, vals := range [][]refVal{y, dw, db} {
		for i := range vals {
			vals[i].n = vals[i].m + 2
		}
	}
	for i := range dx {
		dx[i].n = o + dx[i].m/o + 1
	}
	return y, dx, dw, db
}

// refLinear is the affine map y = x·wᵀ + b of x [N, In] with w [Out, In], and
// its backward for dy: dx = dy·w, dw = dyᵀ·x, db the column sums of dy. Each
// value is one sum of rounded products, or of rows, with the bias added or
// the sum added once into a zeroed gradient: m+2 bounds every chain.
func refLinear(x, w, b, dy *tensor.Tensor) (y, dx, dw, db []refVal) {
	n, in, out := x.Shape[0], x.Shape[1], w.Shape[0]
	y, dx = make([]refVal, n*out), make([]refVal, n*in)
	dw, db = make([]refVal, out*in), make([]refVal, out)
	add := func(r *refVal, term float64) {
		r.v += term
		r.mag += math.Abs(term)
		r.m++
	}
	for i := 0; i < n; i++ {
		for o := 0; o < out; o++ {
			g := float64(dy.Data[i*out+o])
			add(&y[i*out+o], float64(b.Data[o]))
			add(&db[o], g)
			for j := 0; j < in; j++ {
				wv, xv := float64(w.Data[o*in+j]), float64(x.Data[i*in+j])
				add(&y[i*out+o], wv*xv)
				add(&dx[i*in+j], g*wv)
				add(&dw[o*in+j], g*xv)
			}
		}
	}
	for _, vals := range [][]refVal{y, dx, dw, db} {
		for i := range vals {
			vals[i].n = vals[i].m + 2
		}
	}
	return y, dx, dw, db
}

// TestConv2DMatchesOracle: Conv2D's Forward (y) and Backward (dx, and dw, db
// accumulated into zeroed gradients) agree with refConv2D within their
// bounds, at each kernel width, on geometries that reach each of the layer's
// forms: an im2col product over ragged HW with samples stacked (3×3 and 5×5,
// strides 1 and 2), the rows form (OutC 16, stride 2), the offset form over
// a 16×16 map whose gradient walks one sample at a time, and a pointwise
// conv. Six samples make a chunk of four and a ragged one of two wherever
// Backward stacks.
func TestConv2DMatchesOracle(t *testing.T) {
	cases := []struct {
		inC, outC, k, stride, pad, h, w int
	}{
		{3, 5, 3, 1, 1, 7, 9},
		{3, 5, 3, 2, 1, 9, 11},
		{2, 6, 5, 2, 2, 11, 9},
		{4, 16, 3, 2, 1, 9, 11},
		{2, 4, 3, 1, 1, 16, 16},
		{5, 7, 1, 1, 0, 5, 7},
	}
	widths(t, func(t *testing.T) {
		for i, cs := range cases {
			t.Run(fmt.Sprintf("%d→%d/k%d/s%d/%dx%d", cs.inC, cs.outC, cs.k, cs.stride, cs.h, cs.w), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(20 + i)))
				const n = 6
				conv := nn.NewConv2D(tensor.NewRNG(1), cs.inC, cs.outC, cs.k, cs.stride, cs.pad, true)
				copy(conv.Weight.W.Data, randTensor(rng, 0, 0.5, conv.Weight.W.Shape...).Data)
				copy(conv.Bias.W.Data, randTensor(rng, 0, 0.5, cs.outC).Data)
				x := randTensor(rng, 0.2, 1, n, cs.inC, cs.h, cs.w)
				y := conv.Forward(tensor.NewArena(), x)
				dy := randTensor(rng, 0.1, 1, y.Shape...)
				conv.Weight.ZeroGrad()
				conv.Bias.ZeroGrad()
				dx := conv.Backward(tensor.NewArena(), dy)
				ry, rdx, rdw, rdb := refConv2D(x, conv.Weight.W, conv.Bias.W, dy, cs.k, cs.stride, cs.pad)
				within(t, "y", y.Data, ry)
				within(t, "dx", dx.Data, rdx)
				within(t, "dw", conv.Weight.Grad.Data, rdw)
				within(t, "db", conv.Bias.Grad.Data, rdb)
			})
		}
	})
}

// TestLinearMatchesOracle: Linear's Forward (y) and Backward (dx, and dw, db
// accumulated into zeroed gradients) agree with refLinear within their
// bounds, at each kernel width: dW added in place within one K block on strip
// columns, through a product buffer on ragged columns, and over a batch of
// more than one K block.
func TestLinearMatchesOracle(t *testing.T) {
	cases := []struct{ n, in, out int }{{7, 32, 19}, {7, 37, 16}, {300, 32, 19}}
	widths(t, func(t *testing.T) {
		for i, cs := range cases {
			t.Run(fmt.Sprintf("n%d/%d→%d", cs.n, cs.in, cs.out), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(40 + i)))
				l := nn.NewLinear(tensor.NewRNG(1), cs.in, cs.out, true)
				copy(l.Weight.W.Data, randTensor(rng, 0, 0.5, cs.out, cs.in).Data)
				copy(l.Bias.W.Data, randTensor(rng, 0, 0.5, cs.out).Data)
				x := randTensor(rng, 0.2, 1, cs.n, cs.in)
				y := l.Forward(tensor.NewArena(), x)
				dy := randTensor(rng, 0.1, 1, y.Shape...)
				l.Weight.ZeroGrad()
				l.Bias.ZeroGrad()
				dx := l.Backward(tensor.NewArena(), dy)
				ry, rdx, rdw, rdb := refLinear(x, l.Weight.W, l.Bias.W, dy)
				within(t, "y", y.Data, ry)
				within(t, "dx", dx.Data, rdx)
				within(t, "dw", l.Weight.Grad.Data, rdw)
				within(t, "db", l.Bias.Grad.Data, rdb)
			})
		}
	})
}

// scaled is c·r, carried by extra more float32 roundings: one for the
// product, one more for a constant float32 rounds first; 0 for an exact
// product (by ±1).
func (r refVal) scaled(c float64, extra int) refVal {
	return refVal{v: c * r.v, mag: math.Abs(c) * r.mag, n: r.n + extra, m: r.m}
}

// plus is r + o with its one float32 rounding.
func (r refVal) plus(o refVal) refVal {
	return refVal{v: r.v + o.v, mag: r.mag + o.mag, n: max(r.n, o.n) + 1, m: max(r.m, o.m) + 1}
}

// refRetrainStep is one batch step of hdlearn.Retrain (Algorithm 1's HD
// half) from the class matrix mat [K, D] on bipolar queries h [B, D] with
// labels y: the cosine similarities s = ⟨M_k, H_i⟩/(‖M_k‖·‖H_i‖), the update
// U = one_hot(y) − s (MASS) or, with teacher logits z,
// U = (1−α)·(one_hot(y) − s) + α·(softmax(z)/T − s/T), and M + λ·Uᵀ·H. It
// also returns Σ|U|, Retrain's update mass.
//
// The float32 chains: a similarity is a D-term dot (D roundings) divided in
// float64 and rounded once (D+1), its magnitude Σ|M_k|/(‖M_k‖·‖H_i‖). A
// softmax value's relative error is u per rounding of exp's input z−max
// (amplified by |z−max| ≤ span), of the float32 exp, of the sum's terms (the
// span again), of 1/sum and of the product: 2⌈span⌉+3. A constant float32
// rounds first (λ, α, 1/T, T) costs one more rounding; 1−α carries
// α/(1−α)+1 of them. Each batch term of λUᵀ·H is exact (H is ±1), so the
// B-term sum and the add to M cost B+1.
func refRetrainStep(mat, h *tensor.Tensor, y []int, z *tensor.Tensor, lr, alpha, temp float64) (mNew []refVal, mass refVal) {
	k, d, b := mat.Shape[0], mat.Shape[1], h.Shape[0]
	norms := make([]float64, k)
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			norms[c] += float64(mat.Data[c*d+j]) * float64(mat.Data[c*d+j])
		}
		norms[c] = math.Sqrt(norms[c])
	}
	oneMinusA := int(math.Ceil(alpha/(1-alpha))) + 2
	u := make([]refVal, b*k)
	mass.m = b * k
	for i := 0; i < b; i++ {
		var soft []refVal
		if z != nil {
			row := z.Data[i*k : (i+1)*k]
			zmax, span, sum := math.Inf(-1), 0.0, 0.0
			for _, v := range row {
				zmax = math.Max(zmax, float64(v))
			}
			for _, v := range row {
				span = math.Max(span, zmax-float64(v))
				sum += math.Exp(float64(v) - zmax)
			}
			for _, v := range row {
				p := math.Exp(float64(v)-zmax) / sum
				sm := refVal{v: p, mag: p, n: 2*int(math.Ceil(span)) + 3, m: k + 2}
				soft = append(soft, sm.scaled(1/temp, 2))
			}
		}
		for c := 0; c < k; c++ {
			var dot, dmag float64
			for j := 0; j < d; j++ {
				term := float64(mat.Data[c*d+j]) * float64(h.Data[i*d+j])
				dot += term
				dmag += math.Abs(term)
			}
			den := norms[c] * math.Sqrt(float64(d))
			s := refVal{v: dot / den, mag: dmag / den, n: d + 1, m: d + 2}
			hot := 0.0
			if c == y[i] {
				hot = 1
			}
			hard := refVal{v: hot, mag: hot}.plus(s.scaled(-1, 0))
			uv := hard
			if soft != nil {
				distilled := soft[c].plus(s.scaled(1/temp, 2).scaled(-1, 0))
				uv = hard.scaled(1-alpha, oneMinusA).plus(distilled.scaled(alpha, 2))
			}
			mass = refVal{v: mass.v + math.Abs(uv.v), mag: mass.mag + uv.mag, n: max(mass.n, uv.n+1), m: mass.m}
			u[i*k+c] = uv.scaled(lr, 2)
		}
	}
	mNew = make([]refVal, k*d)
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			var e refVal
			for i := 0; i < b; i++ {
				e = e.plus(u[i*k+c].scaled(float64(h.Data[i*d+j]), 0))
			}
			mv := float64(mat.Data[c*d+j])
			mNew[c*d+j] = refVal{v: mv, mag: math.Abs(mv)}.plus(e)
		}
	}
	return mNew, mass
}

// TestRetrainStepMatchesOracle: one hdlearn.Retrain batch step, MASS and
// Algorithm 1 (α = 0.7, T = 15, λ = 0.35), leaves the class matrix within
// refRetrainStep's bounds, and its update mass too, at each kernel width:
// over a batch inside one GEMM K block and over one of 300 queries, at a D
// that no panel divides.
func TestRetrainStepMatchesOracle(t *testing.T) {
	const k, d, lr, alpha, temp = 5, 300, 0.35, 0.7, 15
	widths(t, func(t *testing.T) {
		for i, b := range []int{12, 300} {
			for _, kd := range []bool{false, true} {
				t.Run(fmt.Sprintf("b%d/kd=%v", b, kd), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(60 + i)))
					m := hdlearn.NewModel(k, d)
					copy(m.M.Data, randTensor(rng, 0, 1, k, d).Data)
					h := tensor.New(b, d)
					for j := range h.Data {
						h.Data[j] = float32(1 - 2*rng.Intn(2))
					}
					labels := make([]int, b)
					for j := range labels {
						labels[j] = rng.Intn(k)
					}
					var z *tensor.Tensor
					if kd {
						z = randTensor(rng, 0, 2, b, k)
					}
					ref, mass := refRetrainStep(m.M, h, labels, z, lr, alpha, temp)
					hist, err := m.Retrain(h, labels, z, hdlearn.RetrainConfig{Epochs: 1, LR: lr, Alpha: alpha, Temp: temp, Batch: b}, nil)
					if err != nil {
						t.Fatal(err)
					}
					within(t, "M", m.M.Data, ref)
					within(t, "update mass", []float32{float32(hist[0].MeanUpdateNorm * float64(b))}, []refVal{mass})
				})
			}
		}
	})
}
