package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestReLUIntoMatchesScalar pins the vector kernel bit-identical to the
// scalar `if v <= 0 { v = 0 }` sweep, including NaN passthrough, -0 → +0,
// and every tail length around the 8- and 32-wide unroll boundaries, in
// place and into a separate dst (whose lanes past n it must not touch) with
// src left as it was.
func TestReLUIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), -1e-45, 1e-45}
	for n := 0; n <= 70; n++ {
		x := make([]float32, n)
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = specials[rng.Intn(len(specials))]
			} else {
				x[i] = rng.Float32()*2 - 1
			}
		}
		want := make([]float32, n)
		for i, v := range x {
			if v <= 0 {
				want[i] = 0
			} else {
				want[i] = v
			}
		}
		got := make([]float32, n)
		copy(got, x)
		ReLUInto(got, got)
		src, dst := append([]float32(nil), x...), make([]float32, n+1)
		dst[n] = 7
		ReLUInto(dst, src)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: ReLUInto[%d] = %x in place, %x into dst, want %x (input %v)",
					n, i, math.Float32bits(got[i]), math.Float32bits(dst[i]), math.Float32bits(want[i]), x[i])
			}
		}
		if i := bitsDiffer(src, x); i >= 0 || dst[n] != 7 {
			t.Fatalf("n=%d: ReLUInto wrote its src (%d) or past dst's n lanes", n, i)
		}
	}
}

// TestAddScalarReLUInPlaceMatchesScalar pins the fused bias+ReLU sweep
// bit-identical to the two separate passes (`v += b` then the `v <= 0`
// clamp) over the same special values and unroll-boundary tail lengths,
// across a spread of biases including NaN and infinities.
func TestAddScalarReLUInPlaceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), -1e-45, 1e-45}
	biases := []float32{0, 0.25, -0.25, float32(math.Copysign(0, -1)),
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for n := 0; n <= 70; n++ {
		for _, b := range biases {
			x := make([]float32, n)
			for i := range x {
				if rng.Intn(4) == 0 {
					x[i] = specials[rng.Intn(len(specials))]
				} else {
					x[i] = rng.Float32()*2 - 1
				}
			}
			want := make([]float32, n)
			for i, v := range x {
				y := v + b
				if y <= 0 {
					y = 0
				}
				want[i] = y
			}
			got := make([]float32, n)
			copy(got, x)
			AddScalarReLUInPlace(got, b)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d b=%v: AddScalarReLUInPlace[%d] = %x, want %x (input %v)",
						n, b, i, math.Float32bits(got[i]), math.Float32bits(want[i]), x[i])
				}
			}
		}
	}
}

// TestReLUBackIntoMatchesLoop pins ReLU's backward kernel to the select loop
// it replaced — g's bits where y > 0, +0 elsewhere — at 512 bits, at 256 bits
// and on the portable twin, with NaN, ±0, ±Inf and subnormals in both the
// output y and the gradient g (a NaN y passes no gradient; a NaN or −0
// gradient passes as it is), at every tail length around the 8- and 16-wide
// steps.
func TestReLUBackIntoMatchesLoop(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		math.Float32frombits(0x7fc01234), math.Float32frombits(0xffa00001),
		float32(math.Inf(1)), float32(math.Inf(-1)), -1e-45, 1e-45}
	atEveryWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		draw := func() float32 {
			if rng.Intn(3) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.Float32()*2 - 1
		}
		for n := 0; n <= 70; n++ {
			g, y := make([]float32, n), make([]float32, n)
			for i := range g {
				g[i], y[i] = draw(), draw()
			}
			want := make([]float32, n)
			for i := range want {
				if y[i] > 0 {
					want[i] = g[i]
				}
			}
			got := make([]float32, n)
			for i := range got {
				got[i] = 7 // every element must be written
			}
			ReLUBackInto(got, g, y)
			if i := sameBitsAt(got, want); i >= 0 {
				t.Fatalf("n=%d: dx[%d] = %x, want %x (g %x, y %v)", n, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(g[i]), y[i])
			}
		}
	})
}
