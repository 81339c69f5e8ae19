package hdlearn

import (
	"fmt"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// RetrainConfig configures the retraining loops: Retrain — Many-class
// Similarity Scaling (MASS, CascadeHD, DAC'21) and the paper's Algorithm 1,
// which extends it with a teacher — and the TrainPerceptron baseline.
type RetrainConfig struct {
	Epochs int
	// LR is the learning rate λ scaling each bundled update.
	LR float64
	// Alpha weighs the distilled update against the one-hot update
	// (0 = pure MASS, 1 = pure distillation). Read only with a teacher.
	Alpha float64
	// Temp is the softening temperature t applied to both the student's
	// similarity scores and the teacher's logits. Read only with a teacher.
	Temp float64
	// Batch is Retrain's minibatch size (0 → 32); TrainPerceptron ignores it.
	Batch int
}

// validate rejects hyperparameters Algorithm 1 cannot run with.
func (c RetrainConfig) validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("hdlearn: distill epochs %d < 1", c.Epochs)
	}
	if c.Temp <= 0 {
		return fmt.Errorf("hdlearn: distill temperature %v must be positive", c.Temp)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("hdlearn: distill alpha %v outside [0,1]", c.Alpha)
	}
	return nil
}

// EpochStats reports training progress for one retraining epoch.
type EpochStats struct {
	Epoch int
	// TrainAccuracy is measured on the fly during the epoch.
	TrainAccuracy float64
	// MeanUpdateNorm is the average L1 mass of the per-sample update vector
	// U — it shrinks as the model converges.
	MeanUpdateNorm float64
}

// Retrain retrains the class hypervectors with class-wise similarity
// differences. For each training hypervector H with label y:
//
//	similarity_values = δ(M, H)
//	hard              = one_hot(y) − similarity_values
//	U = hard                                            (MASS: teacherLogits nil)
//	U = (1−α)·hard + α·(soft_labels − similarity_values/t)   (Algorithm 1)
//	M = M + λ·Uᵀ·H
//
// where soft_labels = softmax(teacher_pred)/t comes from teacherLogits, the
// [N, K] output of the full, uncut CNN on the same samples, computed once:
// the CNN runs forward-only, a single time. Misclassified samples produce
// large updates on both the correct class (pulling it toward H) and the
// confused classes (pushing them away).
//
// Each minibatch computes its similarities with one GEMM
// (SimilarityBatchInto) and applies the update as one rank-B GEMM,
// E = (λU)ᵀ·H, M += E. With Batch = 1 it gives the bits of the per-sample
// rule, which bundles λ·U_k·H into each class in turn:
//
//   - Similarity and SimilarityBatchInto share the dot kernel, cached norms
//     and cosine rounding (see Similarity), so sims match bit for bit;
//   - U is scaled by λ BEFORE the outer product, so the B = 1 update element
//     is the float32 chain (λ·u)·h[j] that WeightedBundleInto applies;
//   - the rank-1 GEMM accumulates exactly one product per element, and
//     M += 1·E adds it with the same single rounding;
//   - the MASS row is hard itself, not (1−0)·hard + 0·distilled, which would
//     turn a −0 into +0;
//   - argmax, update-mass accumulation order, and shuffle consumption of the
//     RNG are the per-sample rule's, so the EpochStats history is float64-equal.
//
// Every epoch shuffles the sample order when rng is non-nil. An empty set
// returns nil. Only a teacher brings errors: Epochs ≥ 1, Temp > 0,
// 0 ≤ Alpha ≤ 1, and teacherLogits [N, K].
func (m *Model) Retrain(hvs *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, cfg RetrainConfig, rng *tensor.RNG) ([]EpochStats, error) {
	checkHVs(m, hvs, labels)
	n := hvs.Shape[0]
	var softLabels *tensor.Tensor
	if teacherLogits != nil {
		if err := cfg.validate(); err != nil {
			return nil, err
		}
		if teacherLogits.Rank() != 2 || teacherLogits.Shape[0] != n || teacherLogits.Shape[1] != m.K {
			return nil, fmt.Errorf("hdlearn: teacher logits shape %v, want [%d %d]", teacherLogits.Shape, n, m.K)
		}
		softLabels = tensor.New(n, m.K)
		for i := 0; i < n; i++ {
			row := softLabels.Row(i)
			tensor.Softmax(row, teacherLogits.Row(i))
			for k := range row {
				row[k] /= float32(cfg.Temp)
			}
		}
	}
	if n == 0 {
		return nil, nil
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 32
	}
	batch = min(batch, n)
	m.Invalidate()
	order := identityOrder(n)
	lr := float32(cfg.LR)
	alpha := float32(cfg.Alpha)
	invT := float32(1 / cfg.Temp)

	// All per-batch workspaces are allocated once and re-sliced for the tail.
	hb := tensor.New(batch, m.D)   // gathered query rows
	sims := tensor.New(batch, m.K) // batched similarities
	u := tensor.New(batch, m.K)    // λ-scaled update matrix
	e := tensor.New(m.K, m.D)      // bundled class-wise error E = (λU)ᵀ·H
	scratch := make([]float32, batch*m.K)
	// Each row's norm, computed once a call rather than once an epoch, and
	// the batch's, gathered with its rows.
	norms, normsB := make([]float64, n), make([]float64, batch)
	for i := range norms {
		norms[i] = hdc.Hypervector(hvs.Row(i)).Norm()
	}

	var history []EpochStats
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		shuffle(rng, order)
		correct := 0
		var updateNorm float64
		for start := 0; start < n; start += batch {
			bs := min(batch, n-start)
			hbB := tensor.FromSlice(hb.Data[:bs*m.D], bs, m.D)
			simsB := tensor.FromSlice(sims.Data[:bs*m.K], bs, m.K)
			uB := tensor.FromSlice(u.Data[:bs*m.K], bs, m.K)
			for bi := 0; bi < bs; bi++ {
				copy(hbB.Row(bi), hvs.Row(order[start+bi]))
				normsB[bi] = norms[order[start+bi]]
			}
			m.SimilarityBatchInto(simsB, hbB, normsB[:bs]...)
			for bi := 0; bi < bs; bi++ {
				idx := order[start+bi]
				y := labels[idx]
				srow := simsB.Row(bi)
				if argmax32(srow) == y {
					correct++
				}
				var soft []float32
				if softLabels != nil {
					soft = softLabels.Row(idx)
				}
				urow := uB.Row(bi)
				for k := 0; k < m.K; k++ {
					uv := -srow[k]
					if k == y {
						uv += 1
					}
					if soft != nil {
						distilled := soft[k] - srow[k]*invT
						uv = (1-alpha)*uv + alpha*distilled
					}
					updateNorm += abs64(uv)
					urow[k] = lr * uv
				}
			}
			tensor.TransposeMatMulInto(e, uB, hbB, scratch)
			m.M.AXPY(1, e)
			m.Invalidate()
		}
		history = append(history, epochStats(epoch, correct, updateNorm, n))
	}
	return history, nil
}

// TrainPerceptron is the classic pre-MASS retraining baseline used by the
// ablation benches: only on misclassification, bundle H into the correct
// class and subtract it from the wrongly predicted class. Every epoch
// shuffles the sample order when rng is non-nil; an empty set returns nil.
func (m *Model) TrainPerceptron(hvs *tensor.Tensor, labels []int, cfg RetrainConfig, rng *tensor.RNG) []EpochStats {
	checkHVs(m, hvs, labels)
	n := hvs.Shape[0]
	if n == 0 {
		return nil
	}
	m.Invalidate()
	order := identityOrder(n)
	lr := float32(cfg.LR)
	var history []EpochStats
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		shuffle(rng, order)
		correct := 0
		var updateNorm float64
		for _, idx := range order {
			h := hdc.Hypervector(hvs.Row(idx))
			y := labels[idx]
			pred := m.Predict(h)
			if pred == y {
				correct++
				continue
			}
			updateNorm += 2
			hdc.WeightedBundleInto(hdc.Hypervector(m.M.Row(y)), lr, h)
			hdc.WeightedBundleInto(hdc.Hypervector(m.M.Row(pred)), -lr, h)
			m.Invalidate() // next Predict must see fresh class norms
		}
		history = append(history, epochStats(epoch, correct, updateNorm, n))
	}
	return history
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// shuffle permutes order in place when rng is non-nil.
func shuffle(rng *tensor.RNG, order []int) {
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
}

func epochStats(epoch, correct int, updateNorm float64, n int) EpochStats {
	return EpochStats{
		Epoch:          epoch,
		TrainAccuracy:  float64(correct) / float64(n),
		MeanUpdateNorm: updateNorm / float64(n),
	}
}

func argmax32(x []float32) int {
	best, at := x[0], 0
	for i, v := range x {
		if v > best {
			best, at = v, i
		}
	}
	return at
}

func abs64(v float32) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}
