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
	u := tensor.New(len(labels), m.K)
	m.DistillUpdateBatchInto(u, sims, labels, teacherLogits, alpha, temp)
	return u
}

// DistillUpdateBatchInto is DistillUpdateBatch into a caller-owned [N, K] u,
// which must not alias sims. Each row of u holds the teacher's softmax
// until the update overwrites it element by element, so it needs no other
// workspace.
func (m *Model) DistillUpdateBatchInto(u, sims *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, alpha, temp float64) {
	n := len(labels)
	if sims.Rank() != 2 || sims.Shape[0] != n || sims.Shape[1] != m.K {
		panic(fmt.Sprintf("hdlearn: DistillUpdateBatch sims shape %v, want [%d %d]", sims.Shape, n, m.K))
	}
	if u.Rank() != 2 || u.Shape[0] != n || u.Shape[1] != m.K {
		panic(fmt.Sprintf("hdlearn: DistillUpdateBatchInto u shape %v, want [%d %d]", u.Shape, n, m.K))
	}
	a := float32(alpha)
	invT := float32(1 / temp)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= m.K {
			panic(fmt.Sprintf("hdlearn: label %d out of range [0,%d)", y, m.K))
		}
		srow := sims.Row(i)
		urow := u.Row(i)
		tensor.Softmax(urow, teacherLogits.Row(i))
		for k, soft := range urow {
			hard := -srow[k]
			if k == y {
				hard += 1
			}
			distilled := soft*invT - srow[k]*invT
			urow[k] = (1-a)*hard + a*distilled
		}
	}
}

// ApplyUpdate performs M += λ·Uᵀ·H for a batch of bipolar hypervectors H:
// the bundled class-wise error hypervectors E = λ·Uᵀ·H of Sec. V-C.
//
// E = Uᵀ·H runs on the blocked GEMM (TransposeMatMulInto) into a [K, D]
// buffer the model keeps, and the AXPY adds λ·E. That gives the bits of the
// zero-skip scalar loop it replaced, because H is ±1:
//
//   - every product u·h is exact, so the kernels' fused multiply-add and the
//     loop's multiply-then-add round alike;
//   - every element is one chain over the batch in ascending order from +0,
//     which the strip kernels start in registers and the ragged columns in
//     memory, as long as the batch is one K block (tensor.GemmKBlock);
//   - the loop skipped u = ±0, whose product ±0 leaves every sum but −0
//     unchanged, and a chain of exact products from +0 is never −0.
//
// A larger batch would cut the chain at the K-block edges, so it runs the
// loop itself (updateChain).
func (m *Model) ApplyUpdate(u, hvs *tensor.Tensor, lr float64) {
	n := u.Shape[0]
	if hvs.Shape[0] != n || u.Shape[1] != m.K || hvs.Shape[1] != m.D {
		panic(fmt.Sprintf("hdlearn: ApplyUpdate shapes U=%v H=%v", u.Shape, hvs.Shape))
	}
	m.Invalidate()
	if m.update == nil {
		m.update = tensor.New(m.K, m.D)
	}
	if n > tensor.GemmKBlock() {
		updateChain(m.update, u, hvs)
	} else {
		if len(m.updateT) < n*m.K {
			m.updateT = make([]float32, tensor.GemmKBlock()*m.K)
		}
		tensor.TransposeMatMulInto(m.update, u, hvs, m.updateT)
	}
	m.M.AXPY(float32(lr), m.update)
}

// updateChain writes e = Uᵀ·H ([K, D]) as the scalar loop did: each element
// one chain over the batch from +0, each product rounded before its add, the
// rows where U is ±0 skipped.
func updateChain(e, u, hvs *tensor.Tensor) {
	e.Zero()
	for p := 0; p < u.Shape[0]; p++ {
		hrow := hvs.Row(p)
		for i, uv := range u.Row(p) {
			if uv == 0 {
				continue
			}
			erow := e.Row(i)
			for j, hv := range hrow {
				erow[j] += float32(uv * hv)
			}
		}
	}
}
