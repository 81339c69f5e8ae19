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
	// Packed holds the same rows bit-packed for binary kernels.
	Packed *PackedMatrix
	// Seeded marks a projection whose matrix is DEFINED by Seed through
	// tensor.BipolarGen: any row, tile or GEMM panel of P can be
	// regenerated on demand, bit-identical to the stored matrix, so a
	// serving engine needs only the seed (see tensor.RematPanels).
	Seeded bool
	Seed   int64
	// KeepBlocks, KeepBlock and KeepFullD describe a dimension-pruned
	// projection built by GatherBlocks: this projection's columns are the
	// concatenation of the listed KeepBlock-wide column blocks of the
	// original [F, KeepFullD] matrix. KeepBlocks is nil on an unpruned
	// projection.
	KeepBlocks []int
	KeepBlock  int
	KeepFullD  int
}

// NewProjection samples a seeded random projection for F features into
// dimension D.
func NewProjection(rng *tensor.RNG, f, d int) *Projection {
	if f <= 0 || d <= 0 {
		panic(fmt.Sprintf("hdc: NewProjection with F=%d D=%d", f, d))
	}
	p := tensor.New(f, d)
	rng.FillBipolar(p)
	return &Projection{F: f, D: d, P: p, Packed: NewPackedMatrix(p)}
}

// NewSeededProjection constructs the projection whose matrix is the seeded
// bipolar generator's [F, D] matrix. The dense P and packed forms are
// materialized for the training-side kernels (decode, packed binding);
// serving paths can instead rematerialize panels from the seed alone, which
// collapses the encoder's model bytes from O(F·D) to the 8-byte seed.
func NewSeededProjection(seed int64, f, d int) *Projection {
	if f <= 0 || d <= 0 {
		panic(fmt.Sprintf("hdc: NewSeededProjection with F=%d D=%d", f, d))
	}
	p := tensor.New(f, d)
	tensor.NewBipolarGen(seed, f, d).FillInto(p)
	return &Projection{F: f, D: d, P: p, Packed: NewPackedMatrix(p), Seeded: true, Seed: seed}
}

// Gen returns the defining generator of a seeded projection, nil otherwise.
// For a pruned projection it is the matching block gather of the full
// matrix's generator, so rematerialized panels reproduce exactly this
// projection's columns.
func (pr *Projection) Gen() *tensor.BipolarGen {
	if !pr.Seeded {
		return nil
	}
	if pr.KeepBlocks != nil {
		g := tensor.NewBipolarGen(pr.Seed, pr.F, pr.KeepFullD)
		return g.GatherBlocks(pr.KeepBlocks, pr.KeepBlock)
	}
	return tensor.NewBipolarGen(pr.Seed, pr.F, pr.D)
}

// GatherBlocks returns the dimension-pruned projection keeping the listed
// ascending `block`-wide column blocks of pr (see
// tensor.BipolarGen.GatherBlocks for the alignment contract). The dense and
// packed forms are gathered copies; a seeded projection stays seeded, with
// Gen() returning the gathered generator, so a pruned engine can still
// rematerialize its surviving columns from the original seed. Pruning an
// already-pruned projection is not supported.
func (pr *Projection) GatherBlocks(keep []int, block int) *Projection {
	if pr.KeepBlocks != nil {
		panic("hdc: Projection.GatherBlocks on a pruned projection")
	}
	p := tensor.GatherColBlocks(pr.P, keep, block)
	return &Projection{
		F: pr.F, D: p.Shape[1],
		P:          p,
		Packed:     NewPackedMatrix(p),
		Seeded:     pr.Seeded,
		Seed:       pr.Seed,
		KeepBlocks: append([]int(nil), keep...),
		KeepBlock:  block,
		KeepFullD:  pr.D,
	}
}

// Encode maps one feature vector to its hypervector. It returns both the
// raw (pre-sign) bundle — needed by training procedures that backpropagate
// through the encoder — and the bipolar quantization.
func (pr *Projection) Encode(v []float32) (raw, signed Hypervector) {
	if len(v) != pr.F {
		panic(fmt.Sprintf("hdc: Encode got %d features, projection has F=%d", len(v), pr.F))
	}
	raw = NewHypervector(pr.D)
	for f, val := range v {
		if val == 0 {
			continue
		}
		row := pr.P.Row(f)
		for i, b := range row {
			raw[i] += val * b
		}
	}
	signed = raw.Clone()
	signed.Sign()
	return raw, signed
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

// PrepackedPanels returns P converted once into the blocked GEMM's panel
// form. Products against the result skip the per-call panel packing pass —
// at batch 1 that pass dominates the whole projection GEMM — and need no
// scratch. Results are bit-identical to EncodeBatchInto (the panel kernel
// runs the serial GEMM's exact schedule).
func (pr *Projection) PrepackedPanels() *tensor.ProjPanels {
	return tensor.PrepackPanels(pr.P)
}

// EncodeBatchPanelsInto is EncodeBatchInto against panels prepacked from
// this projection's P (see PrepackedPanels). Strictly serial, zero
// allocations, zero scratch; bit-identical to EncodeBatchInto.
func (pr *Projection) EncodeBatchPanelsInto(features, raw, signed *tensor.Tensor, pp *tensor.ProjPanels) {
	if features.Rank() != 2 || features.Shape[1] != pr.F {
		panic(fmt.Sprintf("hdc: EncodeBatchPanelsInto expects [N %d], got %v", pr.F, features.Shape))
	}
	tensor.MatMulPanelsInto(raw, features, pp, nil)
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
	out := tensor.MatMulT(e, pr.P) // [K, F]
	out.Scale(1 / float32(pr.D))
	return out
}

// EncodeMACs returns the multiply-accumulate count of one encoding under the
// paper's convention (binding = elementwise multiply, bundling = add):
// F·D MACs per sample.
func (pr *Projection) EncodeMACs() int64 { return int64(pr.F) * int64(pr.D) }

// MemoryBytes reports the projection's storage in the given representation.
func (pr *Projection) MemoryBytes(packed bool) int64 {
	if packed {
		return pr.Packed.MemoryBytes()
	}
	return int64(pr.F) * int64(pr.D) * 4
}

// ServingBytes reports what a serving engine must keep resident for the
// encoder: the 8-byte seed when rematerializing from a seeded projection,
// the dense matrix otherwise.
func (pr *Projection) ServingBytes(remat bool) int64 {
	if remat && pr.Seeded {
		return 8
	}
	return int64(pr.F) * int64(pr.D) * 4
}
