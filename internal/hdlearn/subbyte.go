package hdlearn

import (
	"fmt"

	"nshd/internal/tensor"
)

// SubByteScorer is the below-int8 classifier of a compressed engine: the
// cosine-folded class rows M̂_k = M_k/(√D·‖M_k‖) quantized per row to int4 or
// ternary, scored against the same sign-packed bipolar queries the packed
// tail already produces. The dot products are exact integer kernels
// (tensor.Int4SignDot / tensor.TernarySignDot); per-row float32 scales turn
// them back into comparable scores, and the scaled argmax runs in float64
// with the same first-wins tie rule as every other scorer
// (ArgmaxScaledInto). Construction is a deterministic pure function of the
// model, so compressed engines stay bit-reproducible.
//
// The row quantizer is injected by the caller (internal/quant sits above
// this package in the import graph): it writes one row's integer weights and
// returns the row scale. Int4 expects values in [−7, 7], ternary in
// {−1, 0, +1}.
type SubByteScorer struct {
	K, D int
	nw   int // query words per row: ⌈D/64⌉
	name string

	// int4 form: K rows of nw·tensor.Int4BytesPerWord packed nibbles plus
	// each row's weight sum (the Int4SignDot identity needs it).
	nib    []byte
	rowSum []int32

	// ternary form: K rows of nw sign words + nw nonzero-mask words plus
	// each row's nonzero count.
	sgn, msk []uint64
	nnz      []int32

	scales []float32 // per-row dequantization scale
}

// RowQuantizer maps one float row to integer weights written into dst,
// returning the row's dequantization scale.
type RowQuantizer func(dst []int8, row []float32) float32

// NewInt4Scorer folds m's cosine denominator and quantizes each folded row
// to int4 with quantRow (values must land in [−7, 7]). D must stay below
// 2^17 — the amd64 kernel accumulates in int16 lanes.
func NewInt4Scorer(m *Model, quantRow RowQuantizer) *SubByteScorer {
	if m.D >= 1<<17 {
		panic(fmt.Sprintf("hdlearn: NewInt4Scorer D=%d exceeds the int4 kernel bound 2^17", m.D))
	}
	folded := FoldedRows(m)
	nw := (m.D + 63) / 64
	rowBytes := nw * tensor.Int4BytesPerWord
	s := &SubByteScorer{
		K: m.K, D: m.D, nw: nw, name: "int4",
		nib:    make([]byte, m.K*rowBytes),
		rowSum: make([]int32, m.K),
		scales: make([]float32, m.K),
	}
	vals := make([]int8, m.D)
	for k := 0; k < m.K; k++ {
		s.scales[k] = quantRow(vals, folded.Row(k))
		var sum int32
		for _, v := range vals {
			if v < -7 || v > 7 {
				panic(fmt.Sprintf("hdlearn: int4 quantizer produced %d outside [-7, 7]", v))
			}
			sum += int32(v)
		}
		s.rowSum[k] = sum
		tensor.Int4Pack(s.nib[k*rowBytes:(k+1)*rowBytes], vals)
	}
	return s
}

// NewTernaryScorer folds m's cosine denominator and quantizes each folded
// row to {−1, 0, +1} with quantRow.
func NewTernaryScorer(m *Model, quantRow RowQuantizer) *SubByteScorer {
	folded := FoldedRows(m)
	nw := (m.D + 63) / 64
	s := &SubByteScorer{
		K: m.K, D: m.D, nw: nw, name: "ternary",
		sgn:    make([]uint64, m.K*nw),
		msk:    make([]uint64, m.K*nw),
		nnz:    make([]int32, m.K),
		scales: make([]float32, m.K),
	}
	vals := make([]int8, m.D)
	for k := 0; k < m.K; k++ {
		s.scales[k] = quantRow(vals, folded.Row(k))
		sgn, msk := s.sgn[k*nw:(k+1)*nw], s.msk[k*nw:(k+1)*nw]
		var nnz int32
		for d, v := range vals {
			switch v {
			case 0:
			case 1:
				msk[d>>6] |= 1 << (uint(d) & 63)
				nnz++
			case -1:
				msk[d>>6] |= 1 << (uint(d) & 63)
				sgn[d>>6] |= 1 << (uint(d) & 63)
				nnz++
			default:
				panic(fmt.Sprintf("hdlearn: ternary quantizer produced %d outside {-1, 0, 1}", v))
			}
		}
		s.nnz[k] = nnz
	}
	return s
}

// Name reports the precision ("int4" or "ternary").
func (s *SubByteScorer) Name() string { return s.name }

// Scales exposes the per-class dequantization scales (read-only): a scored
// query's class score is float64(Scales()[k]) · float64(dots[k]).
func (s *SubByteScorer) Scales() []float32 { return s.scales }

// DotsInto writes the K integer dots of one sign-packed query row (⌈D/64⌉
// words, tail bits zero) against every class row.
func (s *SubByteScorer) DotsInto(dots []int32, q []uint64) {
	if len(q) != s.nw {
		panic(fmt.Sprintf("hdlearn: SubByteScorer query %d words, want %d", len(q), s.nw))
	}
	if len(dots) < s.K {
		panic(fmt.Sprintf("hdlearn: SubByteScorer dots length %d, want %d", len(dots), s.K))
	}
	if s.nib != nil {
		rowBytes := s.nw * tensor.Int4BytesPerWord
		for k := 0; k < s.K; k++ {
			dots[k] = tensor.Int4SignDot(s.nib[k*rowBytes:(k+1)*rowBytes], q, s.rowSum[k])
		}
		return
	}
	for k := 0; k < s.K; k++ {
		dots[k] = tensor.TernarySignDot(s.sgn[k*s.nw:], s.msk[k*s.nw:], q, s.nnz[k])
	}
}

// MemoryBytes is the scorer's resident storage: packed rows plus per-row
// sums/counts and scales.
func (s *SubByteScorer) MemoryBytes() int64 {
	b := int64(len(s.nib)) + int64(len(s.sgn)+len(s.msk))*8
	b += int64(len(s.rowSum)+len(s.nnz))*4 + int64(len(s.scales))*4
	return b
}
