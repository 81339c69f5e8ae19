package hdc

import (
	"fmt"
	"math"

	"nshd/internal/tensor"
)

// NonlinearEncoder implements the state-of-the-art non-linear encoding the
// paper benchmarks VanillaHD with (Sec. I, citing Imani et al.): a random
// Fourier-feature map
//
//	H_i = sign(cos(V·W_i + b_i))
//
// with Gaussian W and uniform phase b. Unlike random projection it captures
// non-linear feature interactions, yet still fails on raw image pixels —
// which is exactly the motivating observation of the paper.
type NonlinearEncoder struct {
	F, D  int
	W     *tensor.Tensor // [F, D] Gaussian
	Phase []float32      // [D] uniform in [0, 2π)
	Sigma float64
}

// NewNonlinearEncoder samples a seeded non-linear encoder. sigma scales the
// Gaussian bandwidth; 1.0 is the customary default.
func NewNonlinearEncoder(rng *tensor.RNG, f, d int, sigma float64) *NonlinearEncoder {
	if sigma <= 0 {
		panic("hdc: NewNonlinearEncoder requires positive sigma")
	}
	w := tensor.New(f, d)
	rng.FillNormal(w, 0, float32(sigma))
	phase := make([]float32, d)
	for i := range phase {
		phase[i] = float32(rng.Float64() * 2 * math.Pi)
	}
	return &NonlinearEncoder{F: f, D: d, W: w, Phase: phase, Sigma: sigma}
}

// EncodeBatch encodes a [N, F] feature matrix into a [N, D] bipolar tensor.
func (ne *NonlinearEncoder) EncodeBatch(features *tensor.Tensor) *tensor.Tensor {
	if features.Rank() != 2 || features.Shape[1] != ne.F {
		panic(fmt.Sprintf("hdc: nonlinear EncodeBatch expects [N %d], got %v", ne.F, features.Shape))
	}
	z := tensor.MatMul(features, ne.W) // [N, D]
	for i := range z.Data {
		idx := i % ne.D
		c := math.Cos(float64(z.Data[i] + ne.Phase[idx]))
		if c < 0 {
			z.Data[i] = -1
		} else {
			z.Data[i] = 1
		}
	}
	return z
}
