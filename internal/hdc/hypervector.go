// Package hdc implements the hyperdimensional-computing substrate of NSHD:
// bipolar hypervectors, the bind/bundle/permute algebra, similarity metrics,
// random-projection encoding and decoding, and item/level memories.
//
// Hypervectors here are dense ([]float32), which serves bipolar vectors and
// the accumulators of bundling alike. The 1-bit form the paper deploys (one
// bit per dimension, XOR + popcount similarity) lives where it is served:
// hdlearn.PackedModel for the class hypervectors and tensor.SignPanels for
// the projection, both packed by tensor.PackSignsInto.
//
// The bipolar convention is {-1, +1} with sign(0) = +1.
package hdc

import (
	"fmt"
	"math"

	"nshd/internal/tensor"
)

// Hypervector is a dense hypervector of dimension len(h). Components are
// float32 so the same type serves bipolar vectors and integer accumulators.
type Hypervector []float32

// NewHypervector allocates a zero hypervector of dimension d.
func NewHypervector(d int) Hypervector { return make(Hypervector, d) }

// RandomBipolar samples a uniform bipolar hypervector of dimension d.
func RandomBipolar(rng *tensor.RNG, d int) Hypervector {
	h := NewHypervector(d)
	for i := range h {
		if rng.Uint64()&1 == 0 {
			h[i] = 1
		} else {
			h[i] = -1
		}
	}
	return h
}

// Clone returns a copy of h.
func (h Hypervector) Clone() Hypervector {
	c := NewHypervector(len(h))
	copy(c, h)
	return c
}

// Sign maps h to its bipolar quantization in place (sign(0) = +1).
func (h Hypervector) Sign() {
	for i, v := range h {
		if v < 0 {
			h[i] = -1
		} else {
			h[i] = 1
		}
	}
}

// Norm returns the Euclidean norm.
func (h Hypervector) Norm() float64 {
	var s float64
	for _, v := range h {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Bind returns the elementwise product a ⊗ b: associative, self-inverse for
// bipolar inputs, and quasi-orthogonal to both operands.
func Bind(a, b Hypervector) Hypervector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hdc: Bind dimension mismatch %d vs %d", len(a), len(b)))
	}
	out := NewHypervector(len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Bundle returns the elementwise sum of hvs (⊕): the composite remains
// similar to each input. The result is NOT sign-quantized; call Sign for a
// bipolar composite.
func Bundle(hvs ...Hypervector) Hypervector {
	if len(hvs) == 0 {
		panic("hdc: Bundle of no hypervectors")
	}
	out := NewHypervector(len(hvs[0]))
	for _, h := range hvs {
		if len(h) != len(out) {
			panic("hdc: Bundle dimension mismatch")
		}
		for i, v := range h {
			out[i] += v
		}
	}
	return out
}

// BundleInto accumulates src into dst (dst ⊕= src).
func BundleInto(dst, src Hypervector) {
	if len(dst) != len(src) {
		panic("hdc: BundleInto dimension mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// WeightedBundleInto accumulates dst += w·src, the primitive behind MASS
// retraining updates (M += λ Uᵀ H).
func WeightedBundleInto(dst Hypervector, w float32, src Hypervector) {
	if len(dst) != len(src) {
		panic("hdc: WeightedBundleInto dimension mismatch")
	}
	for i, v := range src {
		dst[i] += w * v
	}
}

// Permute returns h cyclically rotated by k positions (ρ operator). Permute
// preserves similarity structure while producing a vector quasi-orthogonal
// to the original, which encodes sequence/position information.
func Permute(h Hypervector, k int) Hypervector {
	d := len(h)
	if d == 0 {
		return nil
	}
	k = ((k % d) + d) % d
	out := NewHypervector(d)
	copy(out[k:], h[:d-k])
	copy(out[:k], h[d-k:])
	return out
}

// Dot returns the dot-product similarity δ(a, b).
func Dot(a, b Hypervector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hdc: Dot dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v) * float64(b[i])
	}
	return s
}

// Cosine returns the cosine similarity of a and b (0 when either is zero).
func Cosine(a, b Hypervector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
