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
func MatMulInto(dst, a, b *Tensor) { MatMulScratchInto(dst, a, b, nil) }

// MatMulScratchInto is MatMulInto with its packed-panel buffers taken from
// scratch instead of from panelPool: a product too small to split over the
// pool needs GemmScratch() floats, one that splits MatMulScratch(M, N, K),
// one buffer per job, and a shorter scratch sends the product to the pool's
// buffers. A training loop that runs on an arena keeps its heap off the
// sync.Pool, whose items a GC (and the race detector, at random) drops. Same
// schedule, same bits.
func MatMulScratchInto(dst, a, b *Tensor, scratch []float32) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v @ %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	gemm(dst.Data, a.Data, b.Data, m, n, k, scratch, true)
}

// MatMulScratch returns the scratch length with which MatMulScratchInto takes
// every packed-panel buffer of an M×K by K×N product from its scratch:
// GemmScratch() for each job the product runs as.
func MatMulScratch(m, n, k int) int {
	return gemmJobs(m, n, k).count() * GemmScratch()
}

// MatMul returns a @ b for rank-2 tensors.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
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

// gemmGrid is a product's decomposition into jobs: rowsPer-row by
// colsPer-column tiles of its m×n output, row-major, the last row and column
// of tiles cut by the output's edge. Job t is a pure function of t, so a
// split needs no job list.
type gemmGrid struct {
	m, n, rowsPer, colsPer int
}

// count is the number of jobs.
func (g gemmGrid) count() int {
	return (g.m + g.rowsPer - 1) / g.rowsPer * ((g.n + g.colsPer - 1) / g.colsPer)
}

// job returns job t's tile.
func (g gemmGrid) job(t int) gemmJob {
	cols := (g.n + g.colsPer - 1) / g.colsPer
	r0, c0 := t/cols*g.rowsPer, t%cols*g.colsPer
	return gemmJob{r0, min(r0+g.rowsPer, g.m), c0, min(c0+g.colsPer, g.n)}
}

// gemmJobs is the decomposition gemm runs an m×n×k product as on this pool:
// one job below the split floor, gemmSplit's above it.
func gemmJobs(m, n, k int) gemmGrid {
	workers := parallel.Workers()
	if workers <= 1 || 2*m*n*k < gemmMinSplitFlops || m == 0 || n == 0 {
		return gemmGrid{m: m, n: n, rowsPer: max(m, 1), colsPer: max(n, 1)}
	}
	return gemmSplit(m, n, k, workers)
}

// gemmSplit decomposes an M×N output into jobs for the given worker count.
// Every job of a row split reads all of B and every job of a column split all
// of A, so rows are split first where B is no wider than the output is tall,
// and only columns otherwise: the dense head's input gradient,
// [32×1024]·[1024×1024], streamed its 4 MB B once per row job: on the
// two-core bench box four row jobs took ×1.3–1.5 the serial product's time
// where a helper was late, and two column jobs take the serial time. When row chunks alone
// cannot feed every worker — small M with large N, e.g. per-sample conv
// matmuls — columns are split too. Splits are aligned to the widest live
// kernel's row group (gemmMR rows, twice that under useGemm512) and to gemmNR
// columns, so a split leaves no task more leftover rows or cut strips than
// the whole product has. Pure function, unit-tested for boundary coverage.
func gemmSplit(m, n, k, workers int) gemmGrid {
	mr := gemmMR
	if useGemm512 {
		mr = 2 * gemmMR // the 8×32 kernels' row group
	}
	rowsPer := (rowGrain(n, k) + mr - 1) / mr * mr
	rowTasks := (m + rowsPer - 1) / rowsPer
	if n > m {
		rowsPer, rowTasks = m, 1
	}
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
	return gemmGrid{m: m, n: n, rowsPer: rowsPer, colsPer: colsPer}
}

// gemm is the product of MatMulScratchInto, and with overwrite unset its
// accumulating twin: gemmJobs' jobs, on the pool when there are several,
// each packing into its GemmScratch() floats of buf when buf holds them all
// and into a pooled buffer otherwise.
func gemm(dst, a, b []float32, m, n, k int, buf []float32, overwrite bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if overwrite {
			clear(dst[:m*n])
		}
		return
	}
	g := gemmJobs(m, n, k)
	jobs, gs := g.count(), GemmScratch()
	if jobs == 1 {
		gemmRange(dst, a, b, n, k, 0, m, 0, n, buf, overwrite)
		return
	}
	if len(buf) < jobs*gs {
		buf = nil
	}
	parallel.For(jobs, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			j := g.job(t)
			var jb []float32
			if buf != nil {
				jb = buf[t*gs:][:gs]
			}
			gemmRange(dst, a, b, n, k, j.r0, j.r1, j.c0, j.c1, jb, overwrite)
		}
	})
}

// gemmRange computes the dst tile rows [r0,r1) × cols [c0,c1), overwriting
// it or, with overwrite unset, adding to it (gemmDrive's two modes), through
// the blocked driver (gemm_driver.go) with buf as its packed-panel buffer, or
// one from panelPool when buf is shorter than GemmScratch();
// callers that must not touch the heap (the serving engine) use
// MatMulSerialInto with their own buffer. Same schedule, same bits. c0 must be
// a multiple of gemmNR, as gemmSplit's jobs are: the buffer has no spill room
// for a cut strip.
func gemmRange(dst, a, b []float32, n, k, r0, r1, c0, c1 int, buf []float32, overwrite bool) {
	if useGemmAsm && len(buf) < GemmScratch() {
		bufp := panelPool.Get().(*[]float32)
		buf = *bufp
		defer panelPool.Put(bufp)
	}
	src := denseB(b, r1-r0, n)
	gemmDrive(dst[r0*n+c0:], n, gemmA{a: a[r0*k:], lda: k}, r1-r0, &src, c0, c1, 0, k, buf, overwrite)
}

// denseInPlaceRows is the most output rows for which a product reads a dense
// B in place: its strips go to the offset kernels straight from B's rows, as
// a conv in offset form reads its window, instead of being packed first —
// "differ in where B is read and in nothing that rounds", so the choice moves
// no bit. A packed strip is reused by every row group of A and read
// sequentially, while B's rows are N floats apart (at N = 1024 every K step
// of a strip falls in one L1 set), so packing pays off only as the rows grow.
// In place ÷ packed, MatMulSerialInto interleaved in one process on the bench
// box, 512-bit kernels: m ≤ 8 0.08–0.53 on every N ∈ {64 … 4096} ×
// K ∈ {8 … 256}; m = 16 0.37–0.65, m = 32 0.55–0.89 (N up to 9216, K up to
// 576); m = 40–48 up to 1.05–1.15 at N ≥ 4096, K ≥ 256, and m = 256 up to
// 1.43. At 256 bits m ≤ 32 reads 0.17–1.00. The 1×1 projections of the
// mobilenet blocks (M = 4–80) sit on both sides. Var only so tests reach both.
var denseInPlaceRows = 32

// denseB describes a dense [K, n] B for a product of m output rows.
// In place needs every K-block offset q·n to fit the kernels' int32 table.
func denseB(b []float32, m, n int) gemmB {
	return gemmB{kind: bDense, n: n, b: b, inPlace: m <= denseInPlaceRows && n <= 1<<23}
}

// GemmKBlock is the blocked driver's K block: a product walks its reduction in
// blocks of this many steps from step 0, each block's sum formed on its own
// and added to the output. So accumulating products whose reductions are
// whole numbers of blocks one after another onto one output (the product
// over their concatenated reductions, split at block edges) gives that
// output the same bits.
func GemmKBlock() int { return gemmKC }

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
	src := denseB(b.Data, m, n)
	gemmDrive(dst.Data, n, gemmA{a: a.Data, lda: k}, m, &src, 0, n, 0, k, scratch, true)
}

// MatMulTInferInto is MatMulTInto for a caller inside a pool task that holds
// a resource queued tasks can wait on (an engine part or an nn.Infer part
// holds a worker arena) and for zero-allocation paths: a B within
// dotStreamFloats is multiplied on the calling goroutine, one over it split by
// columns as MatMulTInto splits it, on a prebound Call whose waiter runs only
// its own tasks. Zero heap allocations, MatMulTInto's bits.
func MatMulTInferInto(dst, a, b *Tensor) {
	m, k, n, ok := matMulTDims(dst, a, b)
	switch {
	case !ok:
	case n*k > dotStreamFloats:
		matMulTColumns(dst.Data, a.Data, b.Data, m, n, k)
	default:
		matMulTRange(dst.Data, a.Data, b.Data, n, k, 0, m)
	}
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

// MatMulTInto computes dst = a(M×K) @ bᵀ (b is N×K) into a caller-owned dst,
// so batched training loops can reuse one similarity buffer across steps.
// This is the layout used for similarity of a query batch against class
// hypervectors: both operands are K-contiguous. The pool splits the rows, or,
// where B is over dotStreamFloats, the columns: then each task streams its
// own share of B once instead of all of B. Row split →
// column split, medians of 100 alternated calls on the two-core bench box:
// [32×1024]·[1024×1024]ᵀ (train's dense head) 1408 → 1009 µs,
// [5×100×18432] 1369 → 511, [32×100×3000] 367 → 353. An output's chain does
// not depend on the column range it is computed in (dotTile), so neither
// split moves a bit.
func MatMulTInto(dst, a, b *Tensor) {
	m, k, n, ok := matMulTDims(dst, a, b)
	switch {
	case !ok:
	case n*k > dotStreamFloats:
		matMulTColumns(dst.Data, a.Data, b.Data, m, n, k)
	default:
		parallel.For(m, rowGrain(n, k), func(lo, hi int) {
			matMulTRange(dst.Data, a.Data, b.Data, n, k, lo, hi)
		})
	}
}

// matMulTDims checks the operands of dst = a(M×K) @ bᵀ (b is N×K) and returns
// M, K and N, with ok false where nothing is left to compute (an empty
// product, or K = 0, whose dst it clears).
func matMulTDims(dst, a, b *Tensor) (m, k, n int, ok bool) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %v @ %vᵀ", a.Shape, b.Shape))
	}
	m, k, n = a.Shape[0], a.Shape[1], b.Shape[0]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if k == 0 {
		clear(dst.Data[:m*n])
	}
	return m, k, n, m > 0 && n > 0 && k > 0
}

// colSplit is one column-split product in flight: its operands, and the
// prebound Call whose task t of tasks computes the dotSplitCols-column
// groups [t·groups/tasks, (t+1)·groups/tasks).
type colSplit struct {
	dst, a, b     []float32
	m, n, k       int
	groups, tasks int
	call          *parallel.Call
}

// colSplits holds a colSplit per worker; a caller that finds none waits for
// one, which is safe because a Call's waiter never waits on the queue.
var (
	colSplitsOnce sync.Once
	colSplits     *parallel.Freelist[*colSplit]
)

func newColSplit() *colSplit {
	s := &colSplit{}
	s.call = parallel.NewCall(0, func(t, _ int) {
		c0 := t * s.groups / s.tasks * dotSplitCols
		c1 := min((t+1)*s.groups/s.tasks*dotSplitCols, s.n)
		dotTile(s.dst[c0:], s.n, s.a, s.k, s.m, s.b[c0*s.k:], s.k, c1-c0, s.k, false)
	})
	return s
}

// matMulTColumns computes dst = a(m×k) @ bᵀ (b is n×k) split over the pool
// by whole groups of dotSplitCols columns, a multiple of both tile widths, so
// only N's own edge moves a tile back. Tasks take near-equal runs of groups,
// as many as For would cut, rowGrain(m, k) being the columns whose
// 2·M·K flops make one task: at batch 1 on embedded_large's FC that is eight
// tasks for nine groups, where For's whole chunks of two would make five
// and leave the helper, which starts late, a coarser share. Allocation-free,
// and the caller claims tasks itself, never running another call's.
func matMulTColumns(dst, a, b []float32, m, n, k int) {
	groups := (n + dotSplitCols - 1) / dotSplitCols
	tasks := parallel.Tasks(groups, (rowGrain(m, k)+dotSplitCols-1)/dotSplitCols)
	if tasks <= 1 {
		matMulTRange(dst, a, b, n, k, 0, m)
		return
	}
	colSplitsOnce.Do(func() { colSplits = parallel.NewFreelist(parallel.Workers(), newColSplit) })
	s := colSplits.Get()
	defer func() {
		s.dst, s.a, s.b = nil, nil, nil
		colSplits.Put(s)
	}()
	s.dst, s.a, s.b, s.m, s.n, s.k, s.groups, s.tasks = dst, a, b, m, n, k, groups, tasks
	s.call.RunN(tasks)
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
	gemmDrive(dst.Data, n, gemmA{a: a.Data, lda: k}, m, &src, 0, n, 0, k, scratch, false)
}

func matMulTRange(dst, a, b []float32, n, k, r0, r1 int) {
	dotTile(dst[r0*n:], n, a[r0*k:], k, r1-r0, b, k, n, k, false)
}

// dotAsm computes an inner product with the AVX2 kernel, falling back to the
// scalar Dot below the vector width. The K mod 8 tail adds one rounded
// product at a time: the float32 conversion keeps a compiler that fuses
// multiply-adds (the Go spec allows it; the arm64 backend does) from turning
// it into one FMA.
func dotAsm(x, y []float32) float32 {
	k := len(x)
	wide := k / 8 * 8
	var s float32
	if wide > 0 {
		s = dot8(wide, &x[0], &y[0])
	}
	for p := wide; p < k; p++ {
		s += float32(x[p] * y[p])
	}
	return s
}

// DotTile writes dst[i*ldd+j] = DotFast(a[i*lda:][:k], b[j*ldb:][:k]) for
// i < m, j < n: MatMulT over operands and an output whose rows are lda, ldb
// and ldd floats apart (a compact query block against column ranges of class
// rows), bit for bit.
func DotTile(dst []float32, ldd int, a []float32, lda, m int, b []float32, ldb, n, k int) {
	dotTile(dst, ldd, a, lda, m, b, ldb, n, k, false)
}

// dotTile is DotTile, adding to dst instead of writing it when accum is set.
//
// Where the 512-bit kernels are live, outputs go twelve at a time to the
// register-tiled dot kernels: 4×3 (A rows × B rows) while four rows are left,
// then 1×12 row by row, one output at a time only where no tile fits. Each
// output of a tile is dot8 over the k/8·8 wide floats to the bit (the kernels
// keep dot8's 32 lane partials and its reduction), and the K mod 8 tail is
// then added here exactly as dotAsm adds it, so every shape and every split
// of a product gives DotFast's bits. A tile whose columns would run past n
// is moved back to end at n; the columns it repeats are computed again, to
// the same bits, and not stored twice.
func dotTile(dst []float32, ldd int, a []float32, lda, m int, b []float32, ldb, n, k int, accum bool) {
	if m == 0 || n == 0 {
		return
	}
	_, _, _ = dst[(m-1)*ldd:][:n], a[(m-1)*lda:][:k], b[(n-1)*ldb:][:k]
	for i0 := 0; i0 < m; {
		mr, nr := dotTileShape(m-i0, n)
		if !useGemm512 || k < 8 || mr == 0 {
			for i := i0; i < m; i++ {
				arow, out := a[i*lda:][:k], dst[i*ldd:][:n]
				for j := range out {
					if s := DotFast(arow, b[j*ldb:][:k]); accum {
						out[j] += s
					} else {
						out[j] = s
					}
				}
			}
			return
		}
		rows := (m - i0) / mr * mr
		dotBand(dst[i0*ldd:], ldd, a[i0*lda:], lda, rows, b, ldb, n, k, accum, mr, nr, dotAInner(rows, n, k))
		i0 += rows
	}
}

// dotTileShape is the tile dotTile gives m remaining rows of an n-column
// product, (0, 0) where none fits. The two or three rows a product of
// M mod 4 ∈ {2, 3} rows leaves get no tile of their own: over the five
// benchmark workloads they carry 0–0.9 % of the tiled multiply-adds (the
// fixtures' 50-row training chunks, the 10- and 11-row HD batches, none of
// them on a timed predict path).
func dotTileShape(m, n int) (mr, nr int) {
	switch {
	case m >= 4 && n >= 3:
		return 4, 3
	case n >= 12:
		return 1, 12
	}
	return 0, 0
}

// dotBand's loop order. With the A tiles outside (B-inner) every A row is
// loaded once and every B row m/mr times; with the B tiles outside (A-inner)
// the other way round. A-inner pays where B overflows the L2 (2 MiB on the
// bench box, a Xeon with AVX-512) while A stays in it. One core, the two
// orders interleaved call by call, medians in µs, B-inner → A-inner, every
// pair of quartile ranges apart:
//
//	[32×1024]·[1024×1024]ᵀ (train's Linear)  1559 → 836
//	[128×1024]·[1024×1024]ᵀ                   5707 → 2860
//	[48×10000]·[100×10000]ᵀ (A 1.9 MB)        2322 → 1933
//	[8×18432]·[100×18432]ᵀ                     734 → 544
//	[24×18432]·[100×18432]ᵀ (A 1.8 MB)        2110 → 1883
//	[28×18432]·[100×18432]ᵀ (A 2.1 MB)        2369 → 2477
//	[32×18432]·[100×18432]ᵀ (A 2.4 MB)        2714 → 3169
//	[64×10000]·[100×10000]ᵀ (A 2.6 MB)        2861 → 3175
//	[64×1024]·[100×1024]ᵀ (B 0.4 MB)           125 → 134
//	[32×1024]·[600×1024]ᵀ (B 2.5 MB)           676 → 450
//
// So A-inner is taken when B is over dotStreamFloats and A within
// dotResidentFloats. [512×1024]·[1024×1024]ᵀ, A exactly 2 MiB, still reads
// 21159 → 19638 and gets B-inner.
const (
	dotStreamFloats   = 1 << 18  // 1 MiB
	dotResidentFloats = 15 << 15 // 1.875 MiB
)

// dotSplitCols is the column group matMulTColumns deals out.
const dotSplitCols = 12

// dotAInner reports whether dotBand walks an m-row band B tile by B tile.
func dotAInner(m, n, k int) bool {
	return n*k > dotStreamFloats && m*k <= dotResidentFloats
}

// dotBand runs the mr × nr tile kernel over m rows (a multiple of mr) and n
// columns (at least nr) of dotTile's product, in the loop order aInner
// picks. The kernel writes a tile's wide sums straight into dst; where K has
// a tail, each of its outputs is then finished in place, and a tile moved
// back at the column edge rewrites the columns it repeats with the same
// bits. Accumulating, the kernel writes to a buffer and only the tile's new
// columns are added into dst.
func dotBand(dst []float32, ldd int, a []float32, lda, m int, b []float32, ldb, n, k int, accum bool, mr, nr int, aInner bool) {
	wide := k &^ 7
	rt, ct := m/mr, (n+nr-1)/nr
	outer, inner := rt, ct
	if aInner {
		outer, inner = ct, rt
	}
	var buf [12]float32
	for u := 0; u < outer; u++ {
		for v := 0; v < inner; v++ {
			ri, ci := u, v
			if aInner {
				ri, ci = v, u
			}
			i0, j0 := ri*mr, ci*nr
			tj := min(j0, n-nr)
			out, ldo := dst[i0*ldd+tj:], ldd
			if accum {
				out, ldo = buf[:], nr
			}
			if mr == 4 {
				dot4x3(wide, &a[i0*lda], lda, &b[tj*ldb], ldb, &out[0], ldo)
			} else {
				dot1x12(wide, &a[i0*lda], lda, &b[tj*ldb], ldb, &out[0], ldo)
			}
			if wide == k && !accum {
				continue
			}
			jFrom := tj
			if accum {
				jFrom = j0
			}
			for i := 0; i < mr; i++ {
				arow, row := a[(i0+i)*lda:][:k], dst[(i0+i)*ldd:]
				for j := jFrom; j < tj+nr; j++ {
					s, brow := out[i*ldo+j-tj], b[j*ldb:][:k]
					for p := wide; p < k; p++ {
						s += float32(arow[p] * brow[p])
					}
					if accum {
						row[j] += s
					} else {
						row[j] = s
					}
				}
			}
		}
	}
}
