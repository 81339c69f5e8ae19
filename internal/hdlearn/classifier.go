// Package hdlearn implements HD-computing classification: class hypervectors
// built by bundling, MASS retraining (CascadeHD), and the paper's Algorithm 1
// — MASS extended with knowledge distillation from a CNN teacher.
package hdlearn

import (
	"fmt"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// Model is an HD classifier: one class hypervector per class, stacked as the
// matrix M = [C₀ ... C_{k-1}] of shape [K, D]. Inference compares a query
// hypervector against every row with cosine similarity and picks the argmax.
type Model struct {
	K, D int
	// M holds the (real-valued) class hypervectors.
	M *tensor.Tensor

	// version counts mutations of M (see Version/Invalidate in version.go);
	// packed caches the sign-quantized form built at packedVersion.
	version       uint64
	packed        *PackedModel
	packedVersion uint64

	// norms caches the per-class L2 row norms computed at normsVersion.
	// Similarity and SimilarityBatch recompute it only after a mutation, so
	// retraining epochs stop paying K·D norm flops per query.
	norms        []float64
	normsVersion uint64
	normsValid   bool

	// update and updateT are ApplyUpdate's workspaces, taken on first use:
	// E = Uᵀ·H ([K, D]) and Uᵀ.
	update  *tensor.Tensor
	updateT []float32
}

// NewModel allocates a zeroed classifier for k classes of dimension d.
func NewModel(k, d int) *Model {
	if k < 2 || d < 1 {
		panic(fmt.Sprintf("hdlearn: NewModel(k=%d, d=%d)", k, d))
	}
	return &Model{K: k, D: d, M: tensor.New(k, d)}
}

// Class returns class hypervector i as a slice aliasing the model.
func (m *Model) Class(i int) hdc.Hypervector { return hdc.Hypervector(m.M.Row(i)) }

// InitBundle builds the classic single-pass HD model: each class hypervector
// is the bundle (sum) of all training hypervectors of that class,
// C_k = Σ H_i. hvs is [N, D]; labels are class indices.
func (m *Model) InitBundle(hvs *tensor.Tensor, labels []int) {
	checkHVs(m, hvs, labels)
	m.Invalidate()
	m.M.Zero()
	for i, y := range labels {
		hdc.BundleInto(hdc.Hypervector(m.M.Row(y)), hdc.Hypervector(hvs.Row(i)))
	}
}

// classNorms returns the per-class L2 norms, recomputing them only when the
// model has been mutated since the last call (keyed on the version counter).
func (m *Model) classNorms() []float64 {
	if !m.normsValid || m.normsVersion != m.version {
		if m.norms == nil {
			m.norms = make([]float64, m.K)
		}
		for k := 0; k < m.K; k++ {
			m.norms[k] = hdc.Hypervector(m.M.Row(k)).Norm()
		}
		m.normsVersion = m.version
		m.normsValid = true
	}
	return m.norms
}

// Similarity returns δ(M, H) — cosine similarity of h against every class
// hypervector, as a length-K vector in [-1, 1]. Cosine keeps similarity on
// the same scale as one-hot targets, which MASS updates difference against.
//
// It shares its dot kernel (tensor.DotFast), cached class norms, and cosine
// rounding (float32 ← float64 dot / den, den==0 → 0) with SimilarityBatch, so
// the two are bit-identical — the invariant Retrain's B=1
// bit-exactness proofs rest on.
func (m *Model) Similarity(h hdc.Hypervector) []float32 {
	if len(h) != m.D {
		panic(fmt.Sprintf("hdlearn: Similarity got dim %d, model has D=%d", len(h), m.D))
	}
	out := make([]float32, m.K)
	hn := h.Norm()
	if hn == 0 {
		return out
	}
	norms := m.classNorms()
	for k := 0; k < m.K; k++ {
		rn := norms[k]
		if rn == 0 {
			continue
		}
		out[k] = float32(float64(tensor.DotFast(h, m.M.Row(k))) / (rn * hn))
	}
	return out
}

// SimilarityBatch computes the [N, K] cosine similarity matrix of a batch of
// query hypervectors against the class hypervectors.
func (m *Model) SimilarityBatch(hvs *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(hvs.Shape[0], m.K)
	m.SimilarityBatchInto(out, hvs)
	return out
}

// SimilarityBatchInto is SimilarityBatch into a caller-owned [N, K] dst, so
// batched retraining epochs reuse one similarity buffer: the dot products run
// as a single GEMM (MatMulTInto) and the class norms come from the version-
// keyed cache. Bit-identical to Similarity row by row.
func (m *Model) SimilarityBatchInto(dst, hvs *tensor.Tensor) {
	if hvs.Rank() != 2 || hvs.Shape[1] != m.D {
		panic(fmt.Sprintf("hdlearn: SimilarityBatch expects [N %d], got %v", m.D, hvs.Shape))
	}
	n := hvs.Shape[0]
	if dst.Rank() != 2 || dst.Shape[0] != n || dst.Shape[1] != m.K {
		panic(fmt.Sprintf("hdlearn: SimilarityBatchInto dst shape %v, want [%d %d]", dst.Shape, n, m.K))
	}
	tensor.MatMulTInto(dst, hvs, m.M) // [N, K] dot products
	norms := m.classNorms()
	for i := 0; i < n; i++ {
		hn := hdc.Hypervector(hvs.Row(i)).Norm()
		row := dst.Row(i)
		for k := 0; k < m.K; k++ {
			den := hn * norms[k]
			if den == 0 {
				row[k] = 0
			} else {
				row[k] = float32(float64(row[k]) / den)
			}
		}
	}
}

// Predict returns argmax_k δ(C_k, h).
func (m *Model) Predict(h hdc.Hypervector) int {
	sims := m.Similarity(h)
	best, at := sims[0], 0
	for k, s := range sims {
		if s > best {
			best, at = s, k
		}
	}
	return at
}

// PredictBatch returns the predicted class of every row of hvs.
func (m *Model) PredictBatch(hvs *tensor.Tensor) []int {
	return tensor.ArgmaxRows(m.SimilarityBatch(hvs))
}

// Accuracy scores the model on a labelled hypervector set.
func (m *Model) Accuracy(hvs *tensor.Tensor, labels []int) float64 {
	preds := m.PredictBatch(hvs)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Clone returns a deep copy, used by hyperparameter sweeps that retrain from
// a common initialization.
func (m *Model) Clone() *Model {
	return &Model{K: m.K, D: m.D, M: m.M.Clone()}
}

// QueryGrad returns dL/dH for a batch given the update matrix U ([N, K]):
// the similarity objective the retraining ascends is Σ_k U_k·δ(C_k, H), whose
// gradient w.r.t. H is Σ_k U_k·C_k = U @ M. The manifold learner consumes
// this through the HD decoder (Sec. V-C); it is the dual of the class update
// M += λ Uᵀ H.
func (m *Model) QueryGrad(u *tensor.Tensor) *tensor.Tensor {
	dst := tensor.New(u.Shape[0], m.D)
	m.QueryGradInto(dst, u)
	return dst
}

// QueryGradInto is QueryGrad into a caller-owned [N, D] dst.
func (m *Model) QueryGradInto(dst, u *tensor.Tensor) {
	if u.Rank() != 2 || u.Shape[1] != m.K {
		panic(fmt.Sprintf("hdlearn: QueryGrad expects [N %d], got %v", m.K, u.Shape))
	}
	tensor.MatMulInto(dst, u, m.M)
}

// MemoryBytes reports model storage: K·D float32 values, or the packed
// binary footprint when quantized for FPGA deployment.
func (m *Model) MemoryBytes(packed bool) int64 {
	if packed {
		return int64(m.K) * int64((m.D+63)/64) * 8
	}
	return int64(m.K) * int64(m.D) * 4
}

// InferenceMACs counts multiply-accumulates of classifying one query:
// K class similarities of D dims each.
func (m *Model) InferenceMACs() int64 { return int64(m.K) * int64(m.D) }

func checkHVs(m *Model, hvs *tensor.Tensor, labels []int) {
	if hvs.Rank() != 2 || hvs.Shape[1] != m.D {
		panic(fmt.Sprintf("hdlearn: expected [N %d] hypervectors, got %v", m.D, hvs.Shape))
	}
	if hvs.Shape[0] != len(labels) {
		panic(fmt.Sprintf("hdlearn: %d hypervectors but %d labels", hvs.Shape[0], len(labels)))
	}
	for _, y := range labels {
		if y < 0 || y >= m.K {
			panic(fmt.Sprintf("hdlearn: label %d out of range [0,%d)", y, m.K))
		}
	}
}
