package hdlearn

import (
	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// The per-sample retraining rules, kept as the references Retrain at
// Batch = 1 must reproduce bit for bit (TestTrainMASSBatchB1BitExact,
// TestTrainDistillBatchB1BitExact): each sample's update λ·U_k·H is bundled
// into each class with WeightedBundleInto, and the next sample's Similarity
// sees the updated class norms. Like Retrain, they shuffle every epoch when
// rng is non-nil.

// TrainMASS retrains with U = one_hot(y) − δ(M, H), M = M + λ·Uᵀ·H, one
// sample at a time.
func (m *Model) TrainMASS(hvs *tensor.Tensor, labels []int, cfg RetrainConfig, rng *tensor.RNG) []EpochStats {
	return m.trainPerSample(hvs, labels, nil, cfg, rng)
}

// TrainDistill is Algorithm 1 one sample at a time:
//
//	similarity_values = δ(M, H)
//	soft_pred         = similarity_values / t
//	soft_labels       = softmax(teacher_pred) / t
//	distilled_updates = soft_labels − soft_pred
//	U = (1−α)·(one_hot − similarity_values) + α·distilled_updates
//	M = M + λ·Uᵀ·H
func (m *Model) TrainDistill(hvs *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, cfg RetrainConfig, rng *tensor.RNG) []EpochStats {
	return m.trainPerSample(hvs, labels, teacherLogits, cfg, rng)
}

func (m *Model) trainPerSample(hvs *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, cfg RetrainConfig, rng *tensor.RNG) []EpochStats {
	checkHVs(m, hvs, labels)
	m.Invalidate()
	n := hvs.Shape[0]
	var softLabels *tensor.Tensor
	if teacherLogits != nil {
		softLabels = tensor.New(n, m.K)
		for i := 0; i < n; i++ {
			row := softLabels.Row(i)
			tensor.Softmax(row, teacherLogits.Row(i))
			for k := range row {
				row[k] /= float32(cfg.Temp)
			}
		}
	}
	order := identityOrder(n)
	lr := float32(cfg.LR)
	alpha := float32(cfg.Alpha)
	invT := float32(1 / cfg.Temp)
	var history []EpochStats
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		shuffle(rng, order)
		correct := 0
		var updateNorm float64
		for _, idx := range order {
			h := hdc.Hypervector(hvs.Row(idx))
			y := labels[idx]
			sims := m.Similarity(h)
			if argmax32(sims) == y {
				correct++
			}
			updated := false
			for k := 0; k < m.K; k++ {
				u := -sims[k]
				if k == y {
					u += 1
				}
				if softLabels != nil {
					distilled := softLabels.Row(idx)[k] - sims[k]*invT
					u = (1-alpha)*u + alpha*distilled
				}
				updateNorm += abs64(u)
				if u != 0 {
					hdc.WeightedBundleInto(hdc.Hypervector(m.M.Row(k)), lr*u, h)
					updated = true
				}
			}
			if updated {
				// The next sample's Similarity must see fresh class norms.
				m.Invalidate()
			}
		}
		history = append(history, epochStats(epoch, correct, updateNorm, n))
	}
	return history
}

// applyUpdateLoop is ApplyUpdate as the zero-skip scalar loop it replaced,
// tensor.TransposeMatMul followed by the AXPY: E starts at +0, and for each
// sample in order and each class whose update is not ±0, E's row takes
// u·H one rounded product at a time.
func applyUpdateLoop(m *Model, u, hvs *tensor.Tensor, lr float64) {
	e := tensor.New(m.K, m.D)
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
	m.M.AXPY(float32(lr), e)
}
