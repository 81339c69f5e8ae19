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
// The loop nest itself, and the argument for why no split of a product moves
// a bit, are in gemm_driver.go. This file holds the dense entry points.
// Parallelism splits over both M and N (tall-skinny shapes like similarity
// scoring keep all workers busy), with chunk sizes derived from per-row flop
// cost rather than a flat element-count cutoff, and tile boundaries aligned
// to the micro-kernel (gemmMR rows, gemmNR cols): see
// TestMatMulSerialParallelIdentical.
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

// gemmMinParallelFlops is the flop floor per row task of the parallel products
// (rowGrain): 8× the generic floor, ≈ 13 µs of the dot kernel behind MatMulT
// (20 GFLOP/s at K = 3000) and ≈ 2 µs of the 512-bit strip kernels. A
// BenchmarkForDispatch fan-out costs 3.2–3.6 µs, but what a split has to
// outlast is a parked helper's wake-up (70–160 µs on the bench box), so the
// grain only shapes the tasks; whether a product fans out at all is decided
// on its whole size — by gemmMinSplitFlops for the blocked GEMM, by the row
// count for MatMulT, which breaks even at ≈ 60 µs of serial work (32×10×3000
// reads ×1.04 split against serial, 64×10×3000 ×0.73).
const gemmMinParallelFlops = 1 << 18

// gemmMinSplitFlops is the smallest blocked product gemm fans out over the
// pool: ≈ 130 µs of one core at the 512-bit kernels' 130 GFLOP/s, 260 µs at
// the 256-bit ones' 65. Below it the split loses to the serial product, since
// each job packs its own B panel and the helper wakes late. Split against
// serial, interleaved in one process on the 2-core bench box, 256-bit / 512-bit:
// 64³ (0.5 Mflop, the floor this replaces) ×1.9 / ×2.2; 96³ (1.8 M) ×1.5 /
// ×2.1; 128³ (4.2 M) ×1.1 / ×1.6; 256³ (33.6 M) ×0.77 / ×1.0; 512³ ×0.58 at
// 512 bits. No split moves a bit, so this is a speed decision only.
const gemmMinSplitFlops = 1 << 24

// KernelISA names the instruction set the float GEMM strip kernels run on in
// this process: "avx512f" (the 512-bit register tiles), "avx2+fma" (the
// 256-bit ones) or "portable" (the pure-Go kernel). Decided once at start-up
// from CPUID and XCR0; all three produce their results by the driver's one
// schedule, and the two vector widths produce the same bits.
func KernelISA() string {
	switch {
	case !useGemmAsm:
		return "portable"
	case useGemm512:
		return "avx512f"
	}
	return "avx2+fma"
}

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
// MatMulInto.
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
// columns are split too. Splits are aligned to the widest live kernel's row
// group (gemmMR rows, twice that under useGemm512) and to gemmNR columns, so
// a split leaves no task more leftover rows or cut strips than the whole
// product has. Pure function, unit-tested for boundary coverage.
func gemmSplit(m, n, k, workers int) []gemmJob {
	mr := gemmMR
	if useGemm512 {
		mr = 2 * gemmMR // the 8×32 kernels' row group
	}
	rowsPer := (rowGrain(n, k) + mr - 1) / mr * mr
	rowTasks := (m + rowsPer - 1) / rowsPer
	if rowTasks > workers*2 {
		rowTasks = workers * 2
		rowsPer = ((m+rowTasks-1)/rowTasks + mr - 1) / mr * mr
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
	if workers <= 1 || 2*m*n*k < gemmMinSplitFlops {
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

// gemmRange computes the dst tile rows [r0,r1) × cols [c0,c1), overwriting
// it, through the blocked driver (gemm_driver.go) with a packed-panel buffer
// from panelPool; callers that must not touch the heap (the serving engine)
// use MatMulSerialInto with their own buffer. Same schedule, same bits. c0
// must be a multiple of gemmNR, as gemmSplit's jobs are: the pooled buffer
// has no spill room for a cut strip.
func gemmRange(dst, a, b []float32, n, k, r0, r1, c0, c1 int) {
	var buf []float32
	if useGemmAsm {
		bufp := panelPool.Get().(*[]float32)
		buf = *bufp
		defer panelPool.Put(bufp)
	}
	src := gemmB{kind: bDense, n: n, b: b}
	gemmDrive(dst[r0*n+c0:], n, a[r0*k:], k, r1-r0, &src, c0, c1, 0, k, buf, true)
}

// GemmScratch returns the packed-panel buffer length (in float32 elements)
// that MatMulSerialInto needs; zero on targets without the asm micro-kernel.
func GemmScratch() int { return driverScratch(false, 0) }

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
	if len(scratch) < GemmScratch() {
		panic(fmt.Sprintf("tensor: MatMulSerialInto scratch %d < GemmScratch %d", len(scratch), GemmScratch()))
	}
	src := gemmB{kind: bDense, n: n, b: b.Data}
	gemmDrive(dst.Data, n, a.Data, k, m, &src, 0, n, 0, k, scratch, true)
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
	if len(scratch) < GemmScratch() {
		panic(fmt.Sprintf("tensor: MatMulAccTSerialInto scratch %d < GemmScratch %d", len(scratch), GemmScratch()))
	}
	src := gemmB{kind: bDenseT, n: n, b: b.Data, k: k}
	gemmDrive(dst.Data, n, a.Data, k, m, &src, 0, n, 0, k, scratch, false)
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
