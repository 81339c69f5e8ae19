// Package quant implements the post-training int8 quantization the paper's
// FPGA flow applies through Vitis AI (Sec. VI-B: "the Vitis AI framework
// quantizes the given model ... the quantization has very minor impacts on
// the prediction quality").
//
// What is provided: symmetric per-tensor int8 quantization of a weight
// tensor (Quantize / Dequantize), and an integer HD inference path — class
// hypervectors quantized to int8 and compared against bipolar queries with
// pure int32 arithmetic, matching the binary/integer datapath of the DPU HD
// unit. The int4 / ternary row quantizers of the compressed class memories
// are in subbyte.go.
package quant

import (
	"fmt"
	"math"

	"nshd/internal/hdlearn"
	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// Tensor8 is a symmetric per-tensor int8 quantization of a float tensor:
// value ≈ Scale · int8.
type Tensor8 struct {
	Data  []int8
	Scale float32
	Shape []int
}

// Quantize maps t to int8 with the scale chosen from the absolute maximum.
// An all-zero tensor quantizes to scale 1 (all zeros).
func Quantize(t *tensor.Tensor) *Tensor8 {
	var maxAbs float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	q := &Tensor8{Data: make([]int8, t.Len()), Scale: scale, Shape: append([]int(nil), t.Shape...)}
	for i, v := range t.Data {
		r := math.Round(float64(v / scale))
		if r > 127 {
			r = 127
		}
		if r < -128 {
			r = -128
		}
		q.Data[i] = int8(r)
	}
	return q
}

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

// HDModel8 is the integer inference form of an HD classifier: row-normalized
// class hypervectors quantized to int8, compared to bipolar queries with an
// int32 dot product. Row normalization before quantization makes the integer
// argmax track the float cosine argmax.
type HDModel8 struct {
	K, D int
	Rows [][]int8
	// Scales holds the per-row quantization scales (diagnostic only — the
	// argmax is scale-invariant after row normalization).
	Scales []float32
}

// QuantizeHD converts a trained HD classifier to the integer path.
func QuantizeHD(m *hdlearn.Model) *HDModel8 {
	q := &HDModel8{K: m.K, D: m.D, Rows: make([][]int8, m.K), Scales: make([]float32, m.K)}
	for k := 0; k < m.K; k++ {
		row := append([]float32(nil), m.M.Row(k)...)
		// Normalize, then quantize.
		var norm float64
		for _, v := range row {
			norm += float64(v) * float64(v)
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			inv := float32(1 / norm)
			for i := range row {
				row[i] *= inv
			}
		}
		t8 := Quantize(tensor.FromSlice(row, m.D))
		q.Rows[k] = t8.Data
		q.Scales[k] = t8.Scale
	}
	return q
}

// PredictBatch classifies bipolar query hypervectors ([N, D] of ±1) using
// int32 arithmetic only, parallelized over queries (each query's K·D scoring
// loop is independent, so the split cannot change any result).
func (q *HDModel8) PredictBatch(signed *tensor.Tensor) ([]int, error) {
	if q.K <= 0 || q.D <= 0 {
		return nil, fmt.Errorf("quant: empty HD model (K=%d, D=%d)", q.K, q.D)
	}
	if signed.Rank() != 2 || signed.Shape[1] != q.D {
		return nil, fmt.Errorf("quant: queries shape %v, want [N %d]", signed.Shape, q.D)
	}
	n := signed.Shape[0]
	out := make([]int, n)
	// One query costs K·D adds; batch enough per task to amortize dispatch.
	grain := 1
	if cost := q.K * q.D; cost > 0 && cost < minBatchWork {
		grain = (minBatchWork + cost - 1) / cost
	}
	parallel.ForGrain(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := signed.Row(i)
			best := int32(math.MinInt32)
			bestK := 0
			for k := 0; k < q.K; k++ {
				var acc int32
				cls := q.Rows[k]
				for j, v := range row {
					// v is ±1: add or subtract, the FPGA datapath's operation.
					if v >= 0 {
						acc += int32(cls[j])
					} else {
						acc -= int32(cls[j])
					}
				}
				if acc > best {
					best, bestK = acc, k
				}
			}
			out[i] = bestK
		}
	})
	return out, nil
}

// minBatchWork is the per-task floor of add/sub operations below which pool
// dispatch overhead would dominate a PredictBatch task.
const minBatchWork = 1 << 15

// MemoryBytes is the int8 model footprint.
func (q *HDModel8) MemoryBytes() int64 { return int64(q.K) * int64(q.D) }
