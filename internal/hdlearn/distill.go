package hdlearn

import (
	"fmt"

	"nshd/internal/tensor"
)

// DistillUpdateBatch computes the update matrix U ([N, K]) of Algorithm 1
// for a whole batch without applying it, from the batch's similarities sims
// ([N, K], SimilarityBatch of its hypervectors against the current M), which
// the caller also ranks for its accuracy count. The NSHD pipeline's joint
// loop uses U both to update M (ApplyUpdate) and to derive the manifold
// learner's gradient through Model.QueryGrad.
//
// Its rounding is its own, not Retrain's: the soft labels are multiplied by
// 1/t here (Retrain divides them by t), and λ scales Uᵀ·H inside
// ApplyUpdate's AXPY (Retrain scales U before the GEMM).
func (m *Model) DistillUpdateBatch(sims *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, alpha, temp float64) *tensor.Tensor {
	n := len(labels)
	if sims.Rank() != 2 || sims.Shape[0] != n || sims.Shape[1] != m.K {
		panic(fmt.Sprintf("hdlearn: DistillUpdateBatch sims shape %v, want [%d %d]", sims.Shape, n, m.K))
	}
	u := tensor.New(n, m.K)
	soft := make([]float32, m.K)
	a := float32(alpha)
	invT := float32(1 / temp)
	for i := 0; i < n; i++ {
		tensor.Softmax(soft, teacherLogits.Row(i))
		srow := sims.Row(i)
		urow := u.Row(i)
		y := labels[i]
		if y < 0 || y >= m.K {
			panic(fmt.Sprintf("hdlearn: label %d out of range [0,%d)", y, m.K))
		}
		for k := 0; k < m.K; k++ {
			hard := -srow[k]
			if k == y {
				hard += 1
			}
			distilled := soft[k]*invT - srow[k]*invT
			urow[k] = (1-a)*hard + a*distilled
		}
	}
	return u
}

// ApplyUpdate performs M += λ·Uᵀ·H for a batch: the bundled class-wise error
// hypervectors E = λ·Uᵀ·H of Sec. V-C.
func (m *Model) ApplyUpdate(u, hvs *tensor.Tensor, lr float64) {
	if u.Shape[0] != hvs.Shape[0] || u.Shape[1] != m.K || hvs.Shape[1] != m.D {
		panic(fmt.Sprintf("hdlearn: ApplyUpdate shapes U=%v H=%v", u.Shape, hvs.Shape))
	}
	m.Invalidate()
	e := tensor.TransposeMatMul(u, hvs) // [K, D]
	m.M.AXPY(float32(lr), e)
}
