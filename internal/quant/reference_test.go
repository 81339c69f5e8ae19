package quant

import "nshd/internal/tensor"

// The reconstruction the tests bound Quantize's error with.

// Dequantize expands the int8 tensor back to float32.
func (q *Tensor8) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	for i, v := range q.Data {
		t.Data[i] = float32(v) * q.Scale
	}
	return t
}

// MaxAbsError returns the worst-case absolute reconstruction error bound for
// the quantization: scale/2.
func (q *Tensor8) MaxAbsError() float32 { return q.Scale / 2 }
