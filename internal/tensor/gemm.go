package tensor

import (
	"fmt"
	"sync"

	"nshd/internal/parallel"
)

// Blocked GEMM. The kernel is organized BLIS-style:
//
//   - the N dimension is walked in gemmNC-column blocks and the K dimension
//     in gemmKC-row blocks, so the active B panel and the 4-row output slab
//     stay cache-resident while row blocks of A stream through;
//   - on amd64 with AVX2+FMA (detected at startup via CPUID), the B panel is
//     packed into 16-wide column strips stored p-major and the inner product
//     runs in a hand-written assembly micro-kernel: a 4×16 register tile held
//     in 8 YMM accumulators, 8 fused multiply-adds per K step — roughly an
//     order of magnitude more flops/cycle than scalar Go;
//   - elsewhere, a pure-Go broadcast-AXPY kernel processes 4 rows per pass,
//     quartering B traffic versus the seed's one-row-at-a-time loop (the
//     dense path also drops the seed kernel's per-element zero test, which
//     mispredicts on dense data).
//
// Parallelism splits over both M and N (tall-skinny shapes like similarity
// scoring keep all workers busy), with chunk sizes derived from per-row flop
// cost rather than a flat element-count cutoff. Tile boundaries are aligned
// to the micro-kernel (gemmMR rows, gemmNR cols), which — together with a
// fixed K-blocking schedule — makes results bit-identical no matter how the
// work is split: see TestMatMulSerialParallelIdentical.
const (
	gemmMR = 4   // rows of A per micro-kernel pass
	gemmNR = 16  // columns per packed strip (one AVX micro-kernel tile)
	gemmKC = 256 // K-dimension block
	gemmNC = 256 // N-dimension block (multiple of gemmNR)
)

// minParallelWork is the floor of per-task work (in elements touched or
// flops, per the call site) below which dispatch overhead would dominate;
// used by memory-bound ops like Transpose.
const minParallelWork = 1 << 15

// gemmMinParallelFlops is the flop floor per GEMM task. It is 8× the generic
// floor because the AVX2 kernel retires ~40 gflops single-threaded, so a
// task needs this many flops (~7 µs) to amortize one pool dispatch.
const gemmMinParallelFlops = 1 << 18

// panelPool recycles packed-B panel buffers across GEMM calls and workers.
var panelPool = sync.Pool{New: func() any {
	buf := make([]float32, gemmKC*gemmNC)
	return &buf
}}

// MatMulInto computes dst = a(M×K) @ b(K×N) with the blocked kernel.
// dst must be M×N and must not alias a or b. The result is deterministic:
// serial and parallel execution produce bit-identical output because tile
// decomposition never changes how any single element accumulates over K.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v @ %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	gemm(dst.Data, a.Data, b.Data, m, n, k)
}

// MatMul returns a @ b for rank-2 tensors.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulNaiveInto is the seed repository's i·p·j kernel (row-major AXPY with
// a zero-skip branch), kept serial as the reference implementation for
// correctness tests and before/after benchmarking. New code should call
// MatMulInto; callers multiplying a genuinely sparse LHS can use
// MatMulSparseInto.
func MatMulNaiveInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v @ %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	for i := 0; i < m; i++ {
		out := dst.Data[i*n : (i+1)*n]
		clear(out)
		arow := a.Data[i*k : (i+1)*k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				out[j] += av * bv
			}
		}
	}
}

// MatMulSparseInto computes dst = a @ b skipping zero elements of a — the
// sparse-aware variant of the seed kernel, parallelized over rows. Use it
// only when a is known to be mostly zeros (e.g. masked update matrices);
// for dense inputs the branch costs more than it saves.
func MatMulSparseInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v @ %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	grain := rowGrain(n, k)
	parallel.ForGrain(m, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out := dst.Data[i*n : (i+1)*n]
			clear(out)
			arow := a.Data[i*k : (i+1)*k]
			for p, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j, bv := range brow {
					out[j] += av * bv
				}
			}
		}
	})
}

// rowGrain returns how many rows one parallel task should cover so that each
// task performs at least gemmMinParallelFlops flops (2·n·k per row).
func rowGrain(n, k int) int {
	rowCost := 2 * n * k
	if rowCost <= 0 {
		return 1 << 30
	}
	g := (gemmMinParallelFlops + rowCost - 1) / rowCost
	if g < 1 {
		g = 1
	}
	return g
}

// gemmJob is one rectangular output tile of a parallel GEMM.
type gemmJob struct {
	r0, r1, c0, c1 int
}

// gemmSplit decomposes an M×N output into jobs for the given worker count.
// Rows are split first (better packing reuse); when row chunks alone cannot
// feed every worker — small M with large N, e.g. per-sample conv matmuls —
// columns are split too. Splits are aligned to gemmMR rows and gemmNR
// columns so every element is computed by the same micro-kernel regardless
// of the decomposition. Pure function, unit-tested for boundary coverage.
func gemmSplit(m, n, k, workers int) []gemmJob {
	rowsPer := rowGrain(n, k)
	if rowsPer%gemmMR != 0 {
		rowsPer += gemmMR - rowsPer%gemmMR
	}
	rowTasks := (m + rowsPer - 1) / rowsPer
	if rowTasks > workers*2 {
		rowTasks = workers * 2
		rowsPer = (m + rowTasks - 1) / rowTasks
		if rowsPer%gemmMR != 0 {
			rowsPer += gemmMR - rowsPer%gemmMR
		}
	}
	colTasks := 1
	if rowTasks < workers && n >= 2*gemmNR {
		colTasks = (workers + rowTasks - 1) / rowTasks
		if maxCols := n / gemmNR; colTasks > maxCols {
			colTasks = maxCols
		}
	}
	colsPer := (n + colTasks - 1) / colTasks
	if colsPer%gemmNR != 0 {
		colsPer += gemmNR - colsPer%gemmNR
	}
	var jobs []gemmJob
	for r0 := 0; r0 < m; r0 += rowsPer {
		r1 := r0 + rowsPer
		if r1 > m {
			r1 = m
		}
		for c0 := 0; c0 < n; c0 += colsPer {
			c1 := c0 + colsPer
			if c1 > n {
				c1 = n
			}
			jobs = append(jobs, gemmJob{r0, r1, c0, c1})
		}
	}
	return jobs
}

func gemm(dst, a, b []float32, m, n, k int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst[:m*n])
		return
	}
	workers := parallel.Workers()
	if workers <= 1 || 2*m*n*k < 2*gemmMinParallelFlops {
		gemmRange(dst, a, b, n, k, 0, m, 0, n)
		return
	}
	jobs := gemmSplit(m, n, k, workers)
	parallel.For(len(jobs), func(lo, hi int) {
		for ji := lo; ji < hi; ji++ {
			j := jobs[ji]
			gemmRange(dst, a, b, n, k, j.r0, j.r1, j.c0, j.c1)
		}
	})
}

// gemmRange computes the dst tile rows [r0,r1) × cols [c0,c1), overwriting it.
// The packed-B panel comes from panelPool; callers that must not touch the
// heap (the serving engine) use gemmRangeScratch with their own buffer.
func gemmRange(dst, a, b []float32, n, k, r0, r1, c0, c1 int) {
	var buf []float32
	var bufp *[]float32
	if useGemmAsm {
		bufp = panelPool.Get().(*[]float32)
		buf = *bufp
		defer panelPool.Put(bufp)
	}
	gemmRangeScratch(dst, a, b, buf, n, k, r0, r1, c0, c1)
}

// gemmRangeScratch is gemmRange with a caller-owned packed-panel buffer
// (length ≥ GemmScratch(); ignored on the pure-Go path). It runs the exact
// same tile schedule as gemmRange, so results are bit-identical.
func gemmRangeScratch(dst, a, b, buf []float32, n, k, r0, r1, c0, c1 int) {
	for i := r0; i < r1; i++ {
		clear(dst[i*n+c0 : i*n+c1])
	}
	gemmAccRange(dst, a, b, buf, n, k, r0, r1, c0, c1, false)
}

// gemmAccRange is the blocked driver proper: it accumulates the dst tile
// rows [r0,r1) × cols [c0,c1) over NC-column blocks and, within each,
// KC-deep K blocks in ascending order. Whether dst starts from zero is the
// caller's choice. With transB, b holds Bᵀ (N×K, rows contiguous along the
// reduction) and the 16-wide panel is packed straight from its rows.
func gemmAccRange(dst, a, b, buf []float32, n, k, r0, r1, c0, c1 int, transB bool) {
	for jb := c0; jb < c1; jb += gemmNC {
		je := jb + gemmNC
		if je > c1 {
			je = c1
		}
		for pb := 0; pb < k; pb += gemmKC {
			pe := pb + gemmKC
			if pe > k {
				pe = k
			}
			if useGemmAsm {
				gemmAsmPart(dst, a, b, buf, n, k, r0, r1, jb, je, pb, pe, transB)
			} else if transB {
				gemmDotPart(dst, a, b, n, k, r0, r1, jb, je, pb, pe)
			} else {
				gemmGoPart(dst, a, b, n, k, r0, r1, jb, je, pb, pe)
			}
		}
	}
}

// gemmAsmPart computes rows [r0,r1) × cols [jb,je) of the K-block [pb,pe)
// using the AVX2 micro-kernel over a packed panel for all full 4×16 tiles,
// the 1×16 strip kernel for leftover rows, and the scalar kernel for the
// ragged column tail (the dot kernel when b is Bᵀ, whose rows are contiguous
// along K).
func gemmAsmPart(dst, a, b, buf []float32, n, k, r0, r1, jb, je, pb, pe int, transB bool) {
	kc := pe - pb
	nFull := (je - jb) / gemmNR * gemmNR
	if nFull > 0 {
		if transB {
			packPanel16T(buf, b, k, pb, pe, jb, jb+nFull)
		} else {
			packPanel16(buf, b, n, pb, pe, jb, jb+nFull)
		}
		i := r0
		for ; i+gemmMR <= r1; i += gemmMR {
			for js := 0; js < nFull; js += gemmNR {
				strip := buf[js*kc:]
				gemm4x16(kc,
					&a[i*k+pb], &a[(i+1)*k+pb], &a[(i+2)*k+pb], &a[(i+3)*k+pb],
					&strip[0],
					&dst[i*n+jb+js], &dst[(i+1)*n+jb+js], &dst[(i+2)*n+jb+js], &dst[(i+3)*n+jb+js])
			}
		}
		// Leftover rows (and the whole of a skinny M < 4 product, e.g.
		// batch-1 serving GEMMs) run through the 1×16 strip kernel over the
		// already-packed panel instead of the scalar tail, which both reuses
		// the pack work and keeps their accumulation order identical to rows
		// inside a full 4-row group.
		for ; i < r1; i++ {
			gemm1x16s(kc, nFull/gemmNR, &a[i*k+pb], &buf[0], &dst[i*n+jb])
		}
	}
	if jb+nFull < je {
		if transB {
			gemmDotPart(dst, a, b, n, k, r0, r1, jb+nFull, je, pb, pe)
		} else {
			gemmGoPart(dst, a, b, n, k, r0, r1, jb+nFull, je, pb, pe)
		}
	}
}

// packPanel16 copies B rows [pb,pe) × cols [jb,jfullEnd) — a whole number of
// 16-column strips — into buf, strip-major then p-major, so the micro-kernel
// reads the panel strictly sequentially.
func packPanel16(buf, b []float32, n, pb, pe, jb, jfullEnd int) {
	si := 0
	for js := jb; js < jfullEnd; js += gemmNR {
		for p := pb; p < pe; p++ {
			copy(buf[si:si+gemmNR], b[p*n+js:][:gemmNR])
			si += gemmNR
		}
	}
}

// packPanel16T is packPanel16 for a transposed operand: bt is Bᵀ (N×K), so
// strip column j at depth p is bt[(js+j)·k+p]. Each source row is read once,
// sequentially, and scattered at stride 16 into a strip that stays in L1 —
// the transpose happens inside the pack, never as a matrix in memory.
func packPanel16T(buf, bt []float32, k, pb, pe, jb, jfullEnd int) {
	kc := pe - pb
	for js := jb; js < jfullEnd; js += gemmNR {
		strip := buf[(js-jb)*kc:][:kc*gemmNR]
		for j := 0; j < gemmNR; j++ {
			for p, v := range bt[(js+j)*k+pb:][:kc] {
				strip[p*gemmNR+j] = v
			}
		}
	}
}

// gemmDotPart accumulates dst[i][j] += a[i][pb:pe] · bt[j][pb:pe] for a
// transposed operand bt (N×K): the portable kernel of the transposed-B
// driver, and on the asm path the ragged column tail (through dot8).
func gemmDotPart(dst, a, bt []float32, n, k, r0, r1, jb, je, pb, pe int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k+pb : i*k+pe]
		for j := jb; j < je; j++ {
			dst[i*n+j] += DotFast(arow, bt[j*k+pb:j*k+pe])
		}
	}
}

// gemmGoPart is the portable kernel: a 4-row broadcast-AXPY over contiguous
// B row segments. Each B element loaded once serves four output rows, and
// the NC blocking keeps the four active output segments L1-resident.
func gemmGoPart(dst, a, b []float32, n, k, r0, r1, jb, je, pb, pe int) {
	i := r0
	for ; i+gemmMR <= r1; i += gemmMR {
		o0 := dst[i*n+jb : i*n+je]
		o1 := dst[(i+1)*n+jb : (i+1)*n+je]
		o2 := dst[(i+2)*n+jb : (i+2)*n+je]
		o3 := dst[(i+3)*n+jb : (i+3)*n+je]
		for p := pb; p < pe; p++ {
			brow := b[p*n+jb : p*n+je]
			axpy4(a[i*k+p], a[(i+1)*k+p], a[(i+2)*k+p], a[(i+3)*k+p], brow, o0, o1, o2, o3)
		}
	}
	for ; i < r1; i++ {
		o0 := dst[i*n+jb : i*n+je]
		for p := pb; p < pe; p++ {
			axpy1(a[i*k+p], b[p*n+jb:p*n+je], o0)
		}
	}
}

// axpy4 computes o_r += av_r * brow for four rows, reusing each loaded B
// element four times.
func axpy4(av0, av1, av2, av3 float32, brow, o0, o1, o2, o3 []float32) {
	o0 = o0[:len(brow)]
	o1 = o1[:len(brow)]
	o2 = o2[:len(brow)]
	o3 = o3[:len(brow)]
	for j, bv := range brow {
		o0[j] += av0 * bv
		o1[j] += av1 * bv
		o2[j] += av2 * bv
		o3[j] += av3 * bv
	}
}

func axpy1(av float32, brow, o0 []float32) {
	o0 = o0[:len(brow)]
	for j, bv := range brow {
		o0[j] += av * bv
	}
}

// GemmScratch returns the packed-panel buffer length (in float32 elements)
// that MatMulSerialInto needs; zero on targets without the asm micro-kernel.
func GemmScratch() int {
	if useGemmAsm {
		return gemmKC * gemmNC
	}
	return 0
}

// MatMulSerialInto computes dst = a(M×K) @ b(K×N) strictly on the calling
// goroutine with caller-owned panel scratch (length ≥ GemmScratch(); nil is
// accepted when GemmScratch() == 0). It performs no heap allocation and no
// pool dispatch, and — because it runs the same fixed tile schedule as the
// parallel kernel — its results are bit-identical to MatMulInto. This is the
// serving engine's GEMM: the engine parallelizes across batch chunks, so each
// chunk's GEMM must stay on its worker.
func MatMulSerialInto(dst, a, b *Tensor, scratch []float32) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v @ %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst.Data[:m*n])
		return
	}
	if useGemmAsm && len(scratch) < gemmKC*gemmNC {
		panic(fmt.Sprintf("tensor: MatMulSerialInto scratch %d < GemmScratch %d", len(scratch), gemmKC*gemmNC))
	}
	gemmRangeScratch(dst.Data, a.Data, b.Data, scratch, n, k, 0, m, 0, n)
}

// MatMulTSerialInto computes dst = a(M×K) @ bᵀ (b is N×K) on the calling
// goroutine with zero allocations, using the same dot kernel as MatMulT so
// results are bit-identical to the parallel path.
func MatMulTSerialInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %v @ %vᵀ", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst.Data[:m*n])
		return
	}
	matMulTRange(dst.Data, a.Data, b.Data, n, k, 0, m)
}

// DotFast returns the inner product of x and y through the same kernel
// MatMulT uses (AVX2 when available, scalar otherwise), so scores computed
// one vector at a time match batched similarity scores bit-for-bit.
func DotFast(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	if useGemmAsm {
		return dotAsm(x, y)
	}
	return Dot(x, y)
}

// MatMulT returns a(M×K) @ bᵀ where b is N×K — the layout used for similarity
// of a query batch against class hypervectors. Both operands are K-contiguous;
// each output element accumulates over the full K range independently, which
// keeps results identical for any parallel row split.
func MatMulT(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[0])
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a(M×K) @ bᵀ (b is N×K) into a caller-owned dst,
// so batched training loops can reuse one similarity buffer across steps. It
// runs the same row-parallel dot kernel as MatMulT; results are bit-identical.
func MatMulTInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %v @ %vᵀ", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst.Data[:m*n])
		return
	}
	grain := rowGrain(n, k)
	parallel.ForGrain(m, grain, func(lo, hi int) {
		matMulTRange(dst.Data, a.Data, b.Data, n, k, lo, hi)
	})
}

// MatMulAccTSerialInto accumulates dst += a(M×K) @ bᵀ (b is N×K) through the
// blocked driver, strictly on the calling goroutine with caller-owned panel
// scratch (length ≥ GemmScratch(), as MatMulSerialInto). This is the
// weight-gradient product of a stacked conv backward pass, dWᵀ += cols·Gᵀ
// with both operands contiguous along the reduction: the packed panel is
// gathered from the rows of b, so no transpose is ever materialized, and the
// fixed K-block schedule keeps every element's accumulation order
// independent of how the batch was split over workers.
func MatMulAccTSerialInto(dst, a, b *Tensor, scratch []float32) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMulAccT requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAccT shape mismatch %v @ %vᵀ -> %v", a.Shape, b.Shape, dst.Shape))
	}
	if useGemmAsm && len(scratch) < gemmKC*gemmNC {
		panic(fmt.Sprintf("tensor: MatMulAccTSerialInto scratch %d < GemmScratch %d", len(scratch), gemmKC*gemmNC))
	}
	gemmAccRange(dst.Data, a.Data, b.Data, scratch, n, k, 0, m, 0, n, true)
}

func matMulTRange(dst, a, b []float32, n, k, r0, r1 int) {
	if useGemmAsm {
		for i := r0; i < r1; i++ {
			arow := a[i*k:][:k]
			for j := 0; j < n; j++ {
				dst[i*n+j] = dotAsm(arow, b[j*k:][:k])
			}
		}
		return
	}
	for i := r0; i < r1; i++ {
		arow := a[i*k:][:k]
		for j := 0; j < n; j++ {
			dst[i*n+j] = Dot(arow, b[j*k:][:k])
		}
	}
}

// dotAsm computes an inner product with the AVX2 kernel, falling back to the
// scalar Dot below the vector width.
func dotAsm(x, y []float32) float32 {
	k := len(x)
	wide := k / 8 * 8
	var s float32
	if wide > 0 {
		s = dot8(wide, &x[0], &y[0])
	}
	for p := wide; p < k; p++ {
		s += x[p] * y[p]
	}
	return s
}
