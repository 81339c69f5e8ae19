package tensor

import "fmt"

// Panel-fed GEMM: the serving engine's fused-tail kernel. A ProjPanels holds
// the right-hand matrix of a projection GEMM in the exact form the blocked
// kernel consumes — either prepacked once at compile time (so the per-call
// packPanel16 pass disappears; at batch 1 that pass dominates the whole
// product) or defined by a seeded BipolarGen whose panels are rematerialized
// into scratch inside the K-loop (so the matrix is never stored at all and
// the kernel turns from bandwidth-bound streaming into pure compute).
//
// MatMulPanelsBlock computes one gemmNC-wide column block of a @ B into a
// compact [m, w] tile, which is what lets the fused tail walk the D
// dimension block by block — packing sign bits or accumulating class scores
// per block — without ever materializing the full [N, D] product.
//
// Bit-exactness contract: for the same underlying matrix, every element
// produced here is bit-identical to MatMulSerialInto's output. The kernel
// runs the same KC/NC schedule, the same asm micro-kernel over the same
// strip layout, and Go fallback loops with the same per-element
// accumulation order over K (p strictly ascending within each K block, K
// blocks ascending). TestMatMulPanelsMatchesSerial pins this across shapes.

// PanelBlockCols returns the column-block width MatMulPanelsBlock computes
// per call (the GEMM's NC blocking); block offsets must be multiples of it.
func PanelBlockCols() int { return gemmNC }

// PanelStripCols returns how many leading columns of an n-column matrix
// PrepackPanels holds as 16-wide micro-kernel strips: ⌊n/16⌋·16 on the asm
// build, none on the portable one.
func PanelStripCols(n int) int {
	if !useGemmAsm {
		return 0
	}
	return n / gemmNR * gemmNR
}

// PanelScratch returns the float32 scratch length the panel kernels need:
// one packed-strip panel plus one dense column-tail tile.
func PanelScratch() int { return gemmKC*gemmNC + gemmKC*gemmNR }

// ProjPanels is a GEMM right-hand side in panel form. Exactly one backing is
// active: a seeded generator (rematerializing), prepacked strips (amd64 asm
// path), or a dense reference (portable path).
type ProjPanels struct {
	k, n int
	gen  *BipolarGen

	// Prepacked asm backing: strips holds cols [0, n16) (n16 = ⌊n/16⌋·16)
	// packed per (NC block, KC block) in packPanel16 layout; stripBase[b] is
	// the offset of NC block b. tail holds the ragged cols [n16, n) densely
	// with leading dimension n−n16.
	strips    []float32
	stripBase []int
	tail      []float32

	// Portable backing: the dense matrix itself (shared, not copied).
	dense []float32
}

// PrepackPanels converts a stored [K, N] matrix into panel form. On the asm
// path the strips are packed once, here, and every subsequent product skips
// the per-call packing pass; the portable path keeps a reference to b's data
// (same kernel, same traffic — prepacking buys nothing without strips).
// b must outlive the panels on the portable path.
func PrepackPanels(b *Tensor) *ProjPanels {
	if b.Rank() != 2 {
		panic("tensor: PrepackPanels requires a rank-2 tensor")
	}
	k, n := b.Shape[0], b.Shape[1]
	pp := &ProjPanels{k: k, n: n}
	if !useGemmAsm {
		pp.dense = b.Data
		return pp
	}
	n16 := PanelStripCols(n)
	pp.strips = make([]float32, k*n16)
	nBlocks := (n + gemmNC - 1) / gemmNC
	pp.stripBase = make([]int, nBlocks)
	off := 0
	for jb := 0; jb < n16; jb += gemmNC {
		w16 := gemmNC
		if jb+w16 > n16 {
			w16 = n16 - jb
		}
		pp.stripBase[jb/gemmNC] = off
		for pb := 0; pb < k; pb += gemmKC {
			pe := pb + gemmKC
			if pe > k {
				pe = k
			}
			packPanel16(pp.strips[off+pb*w16:], b.Data, n, pb, pe, jb, jb+w16)
		}
		off += k * w16
	}
	if n16 < n {
		tw := n - n16
		pp.tail = make([]float32, k*tw)
		for p := 0; p < k; p++ {
			copy(pp.tail[p*tw:(p+1)*tw], b.Data[p*n+n16:(p+1)*n])
		}
	}
	return pp
}

// RematPanels wraps a seeded generator as a GEMM right-hand side. Nothing is
// stored: each K-block panel is regenerated into caller scratch inside the
// product, bit-identical to prepacking the generator's materialized matrix.
func RematPanels(gen *BipolarGen) *ProjPanels {
	return &ProjPanels{k: gen.Rows, n: gen.Cols, gen: gen}
}

// Dims returns the panel matrix shape [K, N].
func (pp *ProjPanels) Dims() (k, n int) { return pp.k, pp.n }

// Remat reports whether the panels are generator-backed (nothing stored).
func (pp *ProjPanels) Remat() bool { return pp.gen != nil }

// MemoryBytes is the panels' resident storage: the seed alone when
// rematerializing, the packed strips + tail on the asm path, or the shared
// dense matrix it references on the portable path.
func (pp *ProjPanels) MemoryBytes() int64 {
	if pp.gen != nil {
		return 8
	}
	if pp.dense != nil {
		return int64(len(pp.dense)) * 4
	}
	return int64(len(pp.strips)+len(pp.tail)) * 4
}

// MatMulPanelsBlock computes one column block of a(M×K) @ B(K×N): columns
// [c0, c0+w) with w = min(PanelBlockCols, N−c0), written as a compact
// row-major [m, w] tile into dst (length ≥ m·w). c0 must be a multiple of
// PanelBlockCols. scratch needs PanelScratch() floats. Strictly serial, zero
// allocations; returns w. Every element is bit-identical to the same column
// of MatMulSerialInto against the materialized matrix.
func MatMulPanelsBlock(dst []float32, a *Tensor, pp *ProjPanels, c0 int, scratch []float32) int {
	m := checkPanelsArgs(a, pp, scratch)
	if c0 < 0 || c0 >= pp.n || c0%gemmNC != 0 {
		panic(fmt.Sprintf("tensor: MatMulPanelsBlock offset %d (n=%d, block %d)", c0, pp.n, gemmNC))
	}
	w := min(gemmNC, pp.n-c0)
	clear(dst[:m*w])
	pp.colBlock(dst, w, 0, a.Data, m, c0, w, scratch)
	return w
}

// MatMulPanelsInto computes the full product dst = a(M×K) @ B(K×N) with dst
// [M, N], walking the column blocks of MatMulPanelsBlock. Strictly serial,
// zero allocations, bit-identical to MatMulSerialInto on the materialized
// matrix.
func MatMulPanelsInto(dst, a *Tensor, pp *ProjPanels, scratch []float32) {
	m := checkPanelsArgs(a, pp, scratch)
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != pp.n {
		panic(fmt.Sprintf("tensor: MatMulPanelsInto dst shape %v, want [%d %d]", dst.Shape, m, pp.n))
	}
	clear(dst.Data[:m*pp.n])
	for c0 := 0; c0 < pp.n; c0 += gemmNC {
		pp.colBlock(dst.Data, pp.n, c0, a.Data, m, c0, min(gemmNC, pp.n-c0), scratch)
	}
}

// AccumPanelsKBlock adds one K block of a @ B to every column of dst:
// dst[i*ldd+j] += Σ_p a[i*lda+p−pb]·B[p, j], p ∈ [pb, pe), for rows i ∈ [0, m).
// a is a compact tile of that K range only, for an A operand that exists one
// block at a time (the serving tail's signed query block against the class
// strips); the caller walks K and owns the accumulator. [pb, pe) must be one
// block of the K grid: pb a multiple of PanelBlockCols, pe the next one or K.
// Same kernels and per-element order as one K step of MatMulPanelsBlock;
// scratch is needed only by rematerializing panels.
func AccumPanelsKBlock(dst []float32, ldd int, a []float32, lda, m int, pp *ProjPanels, pb, pe int, scratch []float32) {
	if pb < 0 || pb%gemmKC != 0 || pe <= pb || pe > pp.k || (pe != pb+gemmKC && pe != pp.k) {
		panic(fmt.Sprintf("tensor: AccumPanelsKBlock rows [%d, %d) are not a K block of %d (block %d)", pb, pe, pp.k, gemmKC))
	}
	for c0 := 0; c0 < pp.n; c0 += gemmNC {
		pp.block(dst, ldd, c0, a, lda, m, pb, pe, c0, min(gemmNC, pp.n-c0), scratch)
	}
}

// SliceRows returns prepacked panels of rows [lo, hi) of B, copied (the
// portable backing stays a view). Strips are laid out per K block, so lo must
// be a multiple of PanelBlockCols and hi one too or K.
func (pp *ProjPanels) SliceRows(lo, hi int) *ProjPanels {
	if pp.gen != nil || lo < 0 || lo >= hi || hi > pp.k || lo%gemmKC != 0 || (hi%gemmKC != 0 && hi != pp.k) {
		panic(fmt.Sprintf("tensor: ProjPanels.SliceRows [%d, %d) of %d rows (block %d)", lo, hi, pp.k, gemmKC))
	}
	out := &ProjPanels{k: hi - lo, n: pp.n}
	if pp.dense != nil {
		out.dense = pp.dense[lo*pp.n : hi*pp.n]
		return out
	}
	n16 := PanelStripCols(pp.n)
	out.stripBase = make([]int, len(pp.stripBase))
	for b, base := range pp.stripBase {
		w16 := max(0, min(gemmNC, n16-b*gemmNC))
		out.stripBase[b] = len(out.strips)
		out.strips = append(out.strips, pp.strips[base+lo*w16:base+hi*w16]...)
	}
	out.tail = append(out.tail, pp.tail[lo*(pp.n-n16):hi*(pp.n-n16)]...)
	return out
}

func checkPanelsArgs(a *Tensor, pp *ProjPanels, scratch []float32) (m int) {
	if a.Rank() != 2 {
		panic("tensor: panel GEMM requires a rank-2 LHS")
	}
	m, k := a.Shape[0], a.Shape[1]
	if k != pp.k {
		panic(fmt.Sprintf("tensor: panel GEMM K mismatch: a is [%d %d], panels hold K=%d", m, k, pp.k))
	}
	if pp.gen != nil && len(scratch) < PanelScratch() {
		panic(fmt.Sprintf("tensor: panel GEMM scratch %d < PanelScratch %d", len(scratch), PanelScratch()))
	}
	return m
}

// colBlock accumulates columns [c0, c0+w) of a @ B over all of K, K blocks
// ascending (gemmRangeScratch's schedule for one NC block). a is [m, K].
func (pp *ProjPanels) colBlock(dst []float32, ldd, dcol int, a []float32, m, c0, w int, scratch []float32) {
	for pb := 0; pb < pp.k && m > 0; pb += gemmKC {
		pp.block(dst, ldd, dcol, a[pb:], pp.k, m, pb, min(pb+gemmKC, pp.k), c0, w, scratch)
	}
}

// block accumulates K block [pb, pe) of columns [c0, c0+w) of a @ B into
// dst, whose element (i, j) lives at dst[i*ldd + dcol + j]; A's element
// (i, p) lives at a[i*lda + p − pb]. The 4×16 asm micro-kernel runs over
// 16-wide strips for full 4-row groups, the 1×16 strip kernel for leftover
// rows, and the portable kernel for the ragged column tail.
func (pp *ProjPanels) block(dst []float32, ldd, dcol int, a []float32, lda, m, pb, pe, c0, w int, scratch []float32) {
	n16 := PanelStripCols(pp.n)
	w16 := max(0, min(w, n16-c0))
	kc := pe - pb
	if w16 > 0 {
		var strip []float32
		if pp.gen != nil {
			strip = scratch[:kc*w16]
			pp.gen.fillStrips(strip, pb, pe, c0, c0+w16)
		} else {
			base := pp.stripBase[c0/gemmNC] + pb*w16
			strip = pp.strips[base : base+kc*w16]
		}
		i := 0
		for ; i+gemmMR <= m; i += gemmMR {
			for js := 0; js < w16; js += gemmNR {
				st := strip[js*kc:]
				gemm4x16(kc,
					&a[i*lda], &a[(i+1)*lda], &a[(i+2)*lda], &a[(i+3)*lda],
					&st[0],
					&dst[i*ldd+dcol+js], &dst[(i+1)*ldd+dcol+js], &dst[(i+2)*ldd+dcol+js], &dst[(i+3)*ldd+dcol+js])
			}
		}
		// Leftover rows — all rows, at batch 1 — run the 1×16 strip
		// kernel over the same panel, in the same per-element order as
		// gemm4x16, instead of a scalar sweep.
		for ; i < m; i++ {
			gemm1x16s(kc, w16/gemmNR, &a[i*lda], &strip[0], &dst[i*ldd+dcol])
		}
	}
	if w16 < w {
		tw := w - w16
		var bt []float32
		ldb, brow0, bj := 0, -pb, 0 // a starts at K row pb; so must B's rows
		switch {
		case pp.gen != nil:
			buf := scratch[gemmKC*gemmNC:]
			if w16 == 0 {
				buf = scratch // portable path: the strip region is unused
			}
			bt = buf[:kc*tw]
			pp.gen.FillTile(bt, tw, pb, pe, c0+w16, c0+w)
			ldb, brow0 = tw, 0
		case pp.dense != nil:
			bt, ldb, bj = pp.dense, pp.n, c0+w16
		default:
			bt, ldb, bj = pp.tail, pp.n-n16, c0+w16-n16
		}
		goPanelPart(dst, a, bt, ldd, lda, ldb, m, 0, kc, brow0, dcol+w16, bj, tw)
	}
}

// goPanelPart is gemmGoPart with independent leading dimensions: it
// accumulates dst[i*ldd + dj + j] += Σ a[i*k+p] · b[(p−brow0)*ldb + bj + j]
// for j ∈ [0, width), rows [0, m), p ∈ [pb, pe). Same 4-row broadcast-AXPY
// structure and per-element accumulation order as gemmGoPart.
func goPanelPart(dst, a, b []float32, ldd, k, ldb, m, pb, pe, brow0, dj, bj, width int) {
	i := 0
	for ; i+gemmMR <= m; i += gemmMR {
		o0 := dst[i*ldd+dj : i*ldd+dj+width]
		o1 := dst[(i+1)*ldd+dj : (i+1)*ldd+dj+width]
		o2 := dst[(i+2)*ldd+dj : (i+2)*ldd+dj+width]
		o3 := dst[(i+3)*ldd+dj : (i+3)*ldd+dj+width]
		for p := pb; p < pe; p++ {
			brow := b[(p-brow0)*ldb+bj : (p-brow0)*ldb+bj+width]
			axpy4(a[i*k+p], a[(i+1)*k+p], a[(i+2)*k+p], a[(i+3)*k+p], brow, o0, o1, o2, o3)
		}
	}
	for ; i < m; i++ {
		o0 := dst[i*ldd+dj : i*ldd+dj+width]
		for p := pb; p < pe; p++ {
			axpy1(a[i*k+p], b[(p-brow0)*ldb+bj:(p-brow0)*ldb+bj+width], o0)
		}
	}
}
