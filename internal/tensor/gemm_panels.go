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
// A ProjPanels is one B source of the blocked driver (gemm_driver.go), which
// runs every product here: for the same underlying matrix, every element is
// bit-identical to MatMulSerialInto's output, by the driver's schedule
// contract. TestMatMulPanelsMatchesSerial pins this across shapes.

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

// PanelScratch returns the float32 scratch length rematerializing panels
// need (the driver's generate-into buffer); prepacked panels need none.
func PanelScratch() int { return driverScratch(true, 0) }

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
	src := gemmB{kind: bPanels, n: pp.n, pp: pp}
	gemmDrive(dst, w, a.Data, pp.k, m, &src, c0, c0+w, 0, pp.k, scratch, true)
	return w
}

// MatMulPanelsInto computes the full product dst = a(M×K) @ B(K×N) with dst
// [M, N]. Strictly serial, zero allocations, bit-identical to
// MatMulSerialInto on the materialized matrix.
func MatMulPanelsInto(dst, a *Tensor, pp *ProjPanels, scratch []float32) {
	m := checkPanelsArgs(a, pp, scratch)
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != pp.n {
		panic(fmt.Sprintf("tensor: MatMulPanelsInto dst shape %v, want [%d %d]", dst.Shape, m, pp.n))
	}
	src := gemmB{kind: bPanels, n: pp.n, pp: pp}
	gemmDrive(dst.Data, pp.n, a.Data, pp.k, m, &src, 0, pp.n, 0, pp.k, scratch, true)
}

// MatMulPanelsKBlock writes one K block of a @ B to every column of dst:
// dst[i*ldd+j] = Σ_p a[i*lda+p−pb]·B[p, j], p ∈ [pb, pe), for rows i ∈ [0, m).
// a is a compact tile of that K range only, for an A operand that exists one
// block at a time (the serving tail's signed query block against the class
// strips). [pb, pe) must be one block of the K grid: pb a multiple of
// PanelBlockCols, pe the next one or K. Same kernels and per-element order
// as one K step of MatMulPanelsBlock, and the bits of clearing dst and
// accumulating into it, without the clear (the strip kernels start the block
// at +0 in registers); scratch is needed only by rematerializing panels.
func MatMulPanelsKBlock(dst []float32, ldd int, a []float32, lda, m int, pp *ProjPanels, pb, pe int, scratch []float32) {
	panelsKBlock(dst, ldd, a, lda, m, pp, pb, pe, scratch, true)
}

// panelsKBlock is MatMulPanelsKBlock, adding the block's sums to dst instead
// of writing them when overwrite is off: the walk a caller accumulating over
// K runs.
func panelsKBlock(dst []float32, ldd int, a []float32, lda, m int, pp *ProjPanels, pb, pe int, scratch []float32, overwrite bool) {
	if pb < 0 || pb%gemmKC != 0 || pe <= pb || pe > pp.k || (pe != pb+gemmKC && pe != pp.k) {
		panic(fmt.Sprintf("tensor: panel K block rows [%d, %d) are not a K block of %d (block %d)", pb, pe, pp.k, gemmKC))
	}
	src := gemmB{kind: bPanels, n: pp.n, pp: pp}
	gemmDrive(dst, ldd, a, lda, m, &src, 0, pp.n, pb, pe, scratch, overwrite)
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

// stripsAt is the panels' half of gemmB.strips: prepacked strips are returned
// in place — [j0, j1) lies in one NC block and [pb, pe) is one K block, the
// unit they are stored in — and a generator's are rematerialized into buf.
func (pp *ProjPanels) stripsAt(buf []float32, pb, pe, j0, j1 int) []float32 {
	if pp.gen != nil {
		pp.gen.fillStrips(buf, pb, pe, j0, j1)
		return buf
	}
	jb := j0 - j0%gemmNC
	w16 := min(gemmNC, PanelStripCols(pp.n)-jb)
	return pp.strips[pp.stripBase[jb/gemmNC]+pb*w16+(j0-jb)*(pe-pb):]
}

// tileAt is the panels' half of gemmB.tile, for the ragged columns (every
// column, on the portable build): regenerated into buf, or a view of the
// dense matrix, or of the prepacked column tail.
func (pp *ProjPanels) tileAt(buf []float32, pb, pe, j0, j1 int) ([]float32, int) {
	switch {
	case pp.gen != nil:
		pp.gen.FillTile(buf, j1-j0, pb, pe, j0, j1)
		return buf, j1 - j0
	case pp.dense != nil:
		return pp.dense[pb*pp.n+j0:], pp.n
	}
	n16 := PanelStripCols(pp.n)
	return pp.tail[pb*(pp.n-n16)+j0-n16:], pp.n - n16
}
