package hdc

import (
	"fmt"

	"nshd/internal/tensor"
)

// Projection is the binary random-projection encoder Φ_P of Sec. IV-B:
// F bipolar base hypervectors of dimension D stacked as a [F, D] matrix.
//
//	Φ_P(V) = sign(V₁⊗P₁ ⊕ ... ⊕ V_F⊗P_F) = sign(Vᵀ P)
//
// Because each feature value scalar-binds (scales) its base hypervector and
// bundling is addition, the whole encoding is one matrix product against a
// ±1 matrix — which hardware realizes as additions/subtractions only.
type Projection struct {
	F, D int
	// P is the dense [F, D] bipolar matrix.
	P *tensor.Tensor
	// Seeded marks a projection whose matrix is DEFINED by Seed through
	// tensor.BipolarGen: any row or tile of P can be regenerated on demand,
	// bit-identical to the stored matrix.
	Seeded bool
	Seed   int64
}

// NewProjection samples a seeded random projection for F features into
// dimension D.
func NewProjection(rng *tensor.RNG, f, d int) *Projection {
	if f <= 0 || d <= 0 {
		panic(fmt.Sprintf("hdc: NewProjection with F=%d D=%d", f, d))
	}
	p := tensor.New(f, d)
	rng.FillBipolar(p)
	return &Projection{F: f, D: d, P: p}
}

// NewSeededProjection constructs the projection whose matrix is the seeded
// bipolar generator's [F, D] matrix. The dense P is materialized for the
// training-side kernels (encode, decode).
func NewSeededProjection(seed int64, f, d int) *Projection {
	if f <= 0 || d <= 0 {
		panic(fmt.Sprintf("hdc: NewSeededProjection with F=%d D=%d", f, d))
	}
	p := tensor.New(f, d)
	tensor.NewBipolarGen(seed, f, d).FillInto(p)
	return &Projection{F: f, D: d, P: p, Seeded: true, Seed: seed}
}

// EncodeBatch encodes a [N, F] feature matrix, returning raw [N, D] and
// signed [N, D] tensors. The heavy product is parallelized across samples.
func (pr *Projection) EncodeBatch(features *tensor.Tensor) (raw, signed *tensor.Tensor) {
	if features.Rank() != 2 || features.Shape[1] != pr.F {
		panic(fmt.Sprintf("hdc: EncodeBatch expects [N %d], got %v", pr.F, features.Shape))
	}
	raw = tensor.MatMul(features, pr.P)
	signed = tensor.Sign(raw)
	return raw, signed
}

// EncodeBatchInto is the serving form of EncodeBatch: strictly serial,
// writing the pre-sign bundle into raw and the bipolar quantization into
// signed (both [N, D]; signed may alias raw for callers that only need the
// bipolar form). scratch is the GEMM panel buffer (length ≥
// tensor.GemmScratch()). Results are bit-identical to EncodeBatch.
func (pr *Projection) EncodeBatchInto(features, raw, signed *tensor.Tensor, scratch []float32) {
	if features.Rank() != 2 || features.Shape[1] != pr.F {
		panic(fmt.Sprintf("hdc: EncodeBatchInto expects [N %d], got %v", pr.F, features.Shape))
	}
	tensor.MatMulSerialInto(raw, features, pr.P, scratch)
	tensor.SignInto(signed, raw)
}

// EncodeBatchPanelsInto is EncodeBatchInto against panels of this
// projection's P — its sign words (tensor.SignPanels), as a serving engine
// holds them. Strictly serial, zero allocations; scratch needs
// tensor.PanelScratch() floats. Bit-identical to EncodeBatchInto.
func (pr *Projection) EncodeBatchPanelsInto(features, raw, signed *tensor.Tensor, pp *tensor.ProjPanels, scratch []float32) {
	if features.Rank() != 2 || features.Shape[1] != pr.F {
		panic(fmt.Sprintf("hdc: EncodeBatchPanelsInto expects [N %d], got %v", pr.F, features.Shape))
	}
	tensor.MatMulPanelsInto(raw, features, pp, scratch)
	tensor.SignInto(signed, raw)
}

// Decode estimates the feature-space preimage of a hypervector: since the
// rows of P are quasi-orthogonal with ⟨P_f, P_f⟩ = D, the least-squares
// estimate of V from H ≈ Vᵀ P is (1/D)·P·H. This is the HD decoding used to
// backpropagate class-hypervector errors into the manifold layer (Sec. V-C).
// It routes through DecodeBatch on a one-row view, so single-vector decoding
// runs the same blocked-GEMM kernel as the batch path.
func (pr *Projection) Decode(h Hypervector) []float32 {
	if len(h) != pr.D {
		panic(fmt.Sprintf("hdc: Decode got dimension %d, projection has D=%d", len(h), pr.D))
	}
	return pr.DecodeBatch(tensor.FromSlice(h, 1, pr.D)).Data
}

// DecodeBatch decodes a [K, D] matrix of hypervectors into [K, F] feature-
// space estimates: (1/D)·E·Pᵀ.
func (pr *Projection) DecodeBatch(e *tensor.Tensor) *tensor.Tensor {
	if e.Rank() != 2 || e.Shape[1] != pr.D {
		panic(fmt.Sprintf("hdc: DecodeBatch expects [K %d], got %v", pr.D, e.Shape))
	}
	out := tensor.New(e.Shape[0], pr.F)
	pr.DecodeBatchInto(out, e)
	return out
}

// DecodeBatchInto is DecodeBatch into a caller-owned [K, F] dst.
func (pr *Projection) DecodeBatchInto(dst, e *tensor.Tensor) {
	if e.Rank() != 2 || e.Shape[1] != pr.D {
		panic(fmt.Sprintf("hdc: DecodeBatch expects [K %d], got %v", pr.D, e.Shape))
	}
	tensor.MatMulTInto(dst, e, pr.P)
	dst.Scale(1 / float32(pr.D))
}

// EncodeMACs returns the multiply-accumulate count of one encoding under the
// paper's convention (binding = elementwise multiply, bundling = add):
// F·D MACs per sample.
func (pr *Projection) EncodeMACs() int64 { return int64(pr.F) * int64(pr.D) }

// MemoryBytes reports the projection's storage in the given representation:
// packed is one bit per ±1 entry, each row padded to whole 64-bit words.
func (pr *Projection) MemoryBytes(packed bool) int64 {
	if packed {
		return int64(pr.F) * int64((pr.D+63)/64) * 8
	}
	return int64(pr.F) * int64(pr.D) * 4
}
