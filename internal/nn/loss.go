package nn

import (
	"fmt"
	"math"

	"nshd/internal/tensor"
)

// CrossEntropy computes softmax cross-entropy over a [N, K] logits batch with
// integer labels, returning the mean loss and the gradient w.r.t. logits.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return crossEntropyIn(nil, logits, labels)
}

// crossEntropyIn is CrossEntropy with the gradient and the softmax row
// allocated as alloc does.
func crossEntropyIn(a *tensor.Arena, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: CrossEntropy expects [N K] logits, got %v", logits.Shape))
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy got %d labels for %d samples", len(labels), n))
	}
	grad := alloc(a, n, k)
	var loss float64
	probs := alloc(a, k).Data
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		tensor.Softmax(probs, row)
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		p := float64(probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grow := grad.Row(i)
		for j := 0; j < k; j++ {
			grow[j] = probs[j] * invN
		}
		grow[y] -= invN
	}
	return loss / float64(n), grad
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	preds := tensor.ArgmaxRows(logits)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
