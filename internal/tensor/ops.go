package tensor

import (
	"fmt"
	"math"

	"nshd/internal/parallel"
)

// AddInto computes dst = a + b elementwise. All three must share a shape
// (dst may alias a or b).
func AddInto(dst, a, b *Tensor) {
	checkSame3(dst, a, b, "AddInto")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Scale multiplies every element of t by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += alpha*x elementwise in place.
func (t *Tensor) AXPY(alpha float32, x *Tensor) {
	if !t.SameShape(x) {
		panic(fmt.Sprintf("tensor: AXPY shape mismatch %v vs %v", t.Shape, x.Shape))
	}
	for i := range t.Data {
		t.Data[i] += alpha * x.Data[i]
	}
}

func checkSame3(dst, a, b *Tensor, op string) {
	if !dst.SameShape(a) || !dst.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v %v %v", op, dst.Shape, a.Shape, b.Shape))
	}
}

// Dot returns the inner product of a and b, which must have equal lengths.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// TransposeMatMulInto computes dst = aᵀ(K×M) @ b(K×N) through the blocked
// parallel GEMM: a is transposed into scratch[:a.Len()] (a fresh buffer is
// taken from the float pool when scratch is too short) and the product runs
// on MatMulScratchInto with the rest of scratch, which holds its panel buffer
// when GemmScratch() floats are left: the rank-K weight-gradient and
// retraining updates. Deterministic: the transpose is a bit-copy and the
// GEMM's accumulation schedule is split-invariant.
func TransposeMatMulInto(dst, a, b *Tensor, scratch []float32) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: TransposeMatMul shape mismatch %vᵀ @ %v", a.Shape, b.Shape))
	}
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: TransposeMatMulInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	var put bool
	if len(scratch) < k*m {
		scratch = GetFloats(k * m)
		put = true
	}
	at := FromSlice(scratch[:m*k], m, k)
	TransposeInto(at, a)
	MatMulScratchInto(dst, at, b, scratch[m*k:])
	if put {
		PutFloats(scratch)
	}
}

// transposeBlock is the square tile edge used by Transpose. A 32×32 float32
// tile is 4 KiB — two tiles (source + destination working set) sit easily in
// L1, so both the row-strided reads and column-strided writes stay within
// cached lines instead of thrashing one line per element.
const transposeBlock = 32

// Transpose returns the transpose of a rank-2 tensor, copying cache-friendly
// square tiles; large matrices are tiled in parallel over row blocks.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	out := New(a.Shape[1], a.Shape[0])
	TransposeInto(out, a)
	return out
}

// TransposeInto writes aᵀ into a caller-owned dst with the same blocked-tile
// schedule as Transpose, so training loops can reuse one transpose buffer
// across steps.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: Transpose requires rank-2 tensors")
	}
	m, n := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != n || dst.Shape[1] != m {
		panic(fmt.Sprintf("tensor: TransposeInto dst shape %v, want [%d %d]", dst.Shape, n, m))
	}
	out := dst
	rowBlocks := (m + transposeBlock - 1) / transposeBlock
	// One task must move at least minParallelWork elements to be worth
	// dispatching.
	grain := 1 + minParallelWork/(transposeBlock*n+1)
	parallel.For(rowBlocks, grain, func(blo, bhi int) {
		for ib := blo * transposeBlock; ib < bhi*transposeBlock && ib < m; ib += transposeBlock {
			ie := ib + transposeBlock
			if ie > m {
				ie = m
			}
			for jb := 0; jb < n; jb += transposeBlock {
				je := jb + transposeBlock
				if je > n {
					je = n
				}
				for i := ib; i < ie; i++ {
					src := a.Data[i*n+jb : i*n+je]
					for jo, v := range src {
						out.Data[(jb+jo)*m+i] = v
					}
				}
			}
		}
	})
}

// Softmax writes the softmax of src into dst (both length n), using the
// max-subtraction trick for numerical stability.
func Softmax(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Softmax length mismatch")
	}
	if len(src) == 0 {
		return
	}
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// ArgmaxRows returns the argmax of each row of a 2-D tensor.
func ArgmaxRows(t *Tensor) []int {
	if t.Rank() != 2 {
		panic("tensor: ArgmaxRows requires rank-2 tensor")
	}
	out := make([]int, t.Shape[0])
	for i := range out {
		row := t.Row(i)
		best, at := row[0], 0
		for j, v := range row {
			if v > best {
				best, at = v, j
			}
		}
		out[i] = at
	}
	return out
}

// Sign returns a tensor of -1/+1 elements matching sign(t); zero maps to +1
// (the convention used by bipolar hypervectors).
func Sign(t *Tensor) *Tensor {
	out := t.Clone()
	SignInPlace(out.Data)
	return out
}

// SignInto writes sign(src) into dst with the same zero→+1 convention as
// Sign. dst and src must share a shape; dst may alias src.
func SignInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: SignInto shape mismatch %v vs %v", dst.Shape, src.Shape))
	}
	copy(dst.Data, src.Data)
	SignInPlace(dst.Data)
}

// ReLUInto writes every element of src clamped to max(v, 0) into dst with
// exactly the semantics of `if v <= 0 { v = 0 }`: NaN passes through, -0
// becomes +0. dst has len(src) elements and is src itself (the in-place
// clamp) or does not overlap it. On amd64 with AVX the bulk runs in a masked
// vector kernel (bit-identical by construction — see reluAsm); the scalar
// loop handles the tail and other targets.
func ReLUInto(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if useGemmAsm {
		if wide := len(src) / 8 * 8; wide > 0 {
			reluAsm(wide, &dst[0], &src[0])
			i = wide
		}
	}
	for ; i < len(src); i++ {
		v := src[i]
		if v <= 0 {
			v = 0
		}
		dst[i] = v
	}
}

// AddScalarReLUInPlace adds b to every element of x and clamps the sum to
// max(v, 0), in one sweep, with exactly the per-element arithmetic of the
// separate passes `x[i] += b` then ReLUInPlace: the IEEE sum first, then the
// `if v <= 0 { v = 0 }` comparison (NaN sums pass through, -0 becomes +0).
// The fused extraction blocks use it as the conv bias + ReLU epilogue so the
// tile is swept once instead of twice.
func AddScalarReLUInPlace(x []float32, b float32) {
	i := 0
	if useGemmAsm {
		if wide := len(x) / 8 * 8; wide > 0 {
			addScalarReluAsm(wide, &x[0], b)
			i = wide
		}
	}
	for ; i < len(x); i++ {
		v := x[i] + b
		if v <= 0 {
			v = 0
		}
		x[i] = v
	}
}
