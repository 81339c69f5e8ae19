package nn

import (
	"fmt"
	"io"

	"nshd/internal/tensor"
)

// Trainer runs minibatch supervised training on a Sequential model.
type Trainer struct {
	Epochs    int
	BatchSize int
	Opt       Optimizer
	ClipNorm  float64 // 0 disables clipping
	Log       io.Writer
	// Augment, when non-nil, is applied in place to each training sample
	// (shape is the per-sample shape) as it is copied into a batch.
	Augment func(sample []float32, shape []int, rng *tensor.RNG)
	// LRSchedule, when non-nil, overrides the SGD learning rate at the
	// start of each epoch (1-based). Ignored for non-SGD optimizers.
	LRSchedule func(epoch int) float64
}

// EpochStats reports the outcome of one training epoch.
type EpochStats struct {
	Epoch    int
	Loss     float64
	Accuracy float64
}

// Fit trains model on images [N, ...] with integer labels, shuffling with rng
// each epoch. It returns per-epoch stats. An empty training set returns nil
// without touching the model.
//
// Every step runs on one training arena, Reset per step: the batch, and the
// activations, gradients, caches and workspaces of every layer (see Layer).
// The first step runs it in measuring mode, Grow sizes the slabs to the
// observed peak, and every later step bump-allocates from the same warm
// memory instead of the heap (tail batches are smaller and always fit). The
// layers' caches point into the arena when Fit returns; a Backward on them
// without a new Forward reads a stale step.
func (t *Trainer) Fit(model *Sequential, images *tensor.Tensor, labels []int, rng *tensor.RNG) []EpochStats {
	n := images.Shape[0]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: Fit got %d labels for %d samples", len(labels), n))
	}
	if n == 0 {
		return nil
	}
	// Resolve the default into a local so Fit never mutates its receiver.
	batchSize := t.BatchSize
	if batchSize <= 0 {
		batchSize = 32
	}
	sampleLen := images.Len() / n
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	arena := tensor.NewArena()
	grown := false
	batchShape := append([]int{0}, images.Shape[1:]...)
	byBuf := make([]int, batchSize)
	params := model.Params() // once: every step clears, clips and steps the same list
	var history []EpochStats
	for epoch := 1; epoch <= t.Epochs; epoch++ {
		if t.LRSchedule != nil {
			if sgd, ok := t.Opt.(*SGD); ok {
				sgd.LR = t.LRSchedule(epoch)
			}
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		var correct, seen int
		for start := 0; start < n; start += batchSize {
			end := start + batchSize
			if end > n {
				end = n
			}
			bs := end - start
			arena.Reset()
			batchShape[0] = bs
			bx := arena.Alloc(batchShape...)
			by := byBuf[:bs]
			for bi := 0; bi < bs; bi++ {
				src := order[start+bi]
				sample := bx.Data[bi*sampleLen : (bi+1)*sampleLen]
				copy(sample, images.Data[src*sampleLen:(src+1)*sampleLen])
				if t.Augment != nil {
					t.Augment(sample, images.Shape[1:], rng)
				}
				by[bi] = labels[src]
			}
			zeroGrads(params)
			logits := model.Forward(arena, bx)
			loss, grad := CrossEntropy(arena, logits, by)
			model.backwardParams(arena, grad)
			if t.ClipNorm > 0 {
				ClipGradNorm(arena, params, t.ClipNorm)
			}
			t.Opt.Step(params)
			lossSum += loss * float64(bs)
			preds := tensor.ArgmaxRows(logits)
			for i, p := range preds {
				if p == by[i] {
					correct++
				}
			}
			seen += bs
			if !grown {
				// First step measured the peak step footprint; size the
				// slabs once so later steps allocate nothing.
				arena.Grow()
				grown = true
			}
		}
		st := EpochStats{Epoch: epoch, Loss: lossSum / float64(seen), Accuracy: float64(correct) / float64(seen)}
		history = append(history, st)
		if t.Log != nil {
			fmt.Fprintf(t.Log, "epoch %d/%d loss=%.4f acc=%.4f\n", epoch, t.Epochs, st.Loss, st.Accuracy)
		}
	}
	return history
}

// PredictLogits returns model's eval output over images, [N, OutShape...]:
// the [N, K] logits of a classifier. It is Infer with parts of at most
// batchSize samples (64 when batchSize <= 0).
func PredictLogits(model *Sequential, images *tensor.Tensor, batchSize int) *tensor.Tensor {
	return Infer(model, images, batchSize)
}

// Evaluate returns classification accuracy of model on a labelled set. An
// empty set scores 0 rather than NaN.
func Evaluate(model *Sequential, images *tensor.Tensor, labels []int, batchSize int) float64 {
	if images.Shape[0] == 0 {
		return 0
	}
	logits := PredictLogits(model, images, batchSize)
	return Accuracy(logits, labels)
}
