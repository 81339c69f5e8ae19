package tensor

import (
	"fmt"
	"math"
	"unsafe"

	"nshd/internal/parallel"
)

// Panel-fed GEMM: the serving engine's fused-tail kernel. A ProjPanels holds
// the right-hand matrix of a projection GEMM in a form the blocked kernel
// reads without a per-call packing pass (at batch 1 that pass dominates the
// whole product), in one of two backings:
//
//   - sign words (SignPanels), for a ±1 matrix: one bit per entry, set for
//     −1 — the convention of BipolarGen, PackSignsInto and hdlearn.PackedModel.
//     Each panel step expands the strips it is about to multiply into an
//     L1-sized run of exactly ±1.0 (expandSigns), so the strip kernels read
//     the very values the stored matrix holds, in the same K order, and the
//     matrix costs one bit per entry instead of 32. Fewer rows than a 4-row
//     kernel takes read the words in place instead (signRows).
//   - prepacked float strips (PrepackPanels), for any other matrix: packed
//     once at compile time in the strip kernels' layout.
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

// signRunCols is how many columns of sign-word panels one expansion covers
// before the strip kernels consume them: one sign word, four strips. At
// K = 100 a run is 25.6 KB of strips, still in L1 when the 8×32 kernels read
// it; a whole 256-column block (100 KB) is not, and measured 10–20 % slower
// at batch 8 and 64 (DESIGN.md, "Fused tail"). Fewer than four rows expand
// nothing (signRows).
const signRunCols = 64

// PanelBlockCols returns the column-block width MatMulPanelsBlock computes
// per call (the GEMM's NC blocking); block offsets must be multiples of it.
func PanelBlockCols() int { return gemmNC }

// PanelStripCols returns how many leading columns of an n-column matrix the
// panels serve as 16-wide micro-kernel strips: ⌊n/16⌋·16 on the asm build,
// none on the portable one.
func PanelStripCols(n int) int {
	if !useGemmAsm {
		return 0
	}
	return n / gemmNR * gemmNR
}

// PanelScratch returns the float32 scratch length sign-word panels need (the
// expanded runs, or the portable build's dense tiles); prepacked panels need
// none.
func PanelScratch() int { return driverScratch(true, 0) }

// ProjPanels is a GEMM right-hand side in panel form. Exactly one backing is
// active: sign words, prepacked strips (amd64 asm path), or a dense reference
// (portable path).
type ProjPanels struct {
	k, n int

	// Sign-word backing: row p's bits are signs[p·wpr : (p+1)·wpr], bit j%64
	// of word j/64 set where entry (p, j) is −1.
	signs []uint64
	wpr   int

	// Prepacked asm backing: strips holds cols [0, n16) (n16 = ⌊n/16⌋·16)
	// packed per (NC block, KC block) in packPanel16 layout, NC block jb/gemmNC
	// from k·jb on. tail holds the ragged cols [n16, n) densely with leading
	// dimension n−n16.
	strips []float32
	tail   []float32

	// Portable backing: the dense matrix itself (shared, not copied).
	dense []float32
}

// SignPanels holds a [K, N] matrix of ±1 entries as sign words, K·⌈N/64⌉
// uint64. Packing keeps only `v < 0`, so an entry that is not exactly +1 or
// −1 (0, −0, NaN, 0.5) would be served as ±1: callers check first (the
// engine's Compile does, once per operand).
func SignPanels(b *Tensor) *ProjPanels {
	if b.Rank() != 2 {
		panic("tensor: SignPanels requires a rank-2 tensor")
	}
	k, n := b.Shape[0], b.Shape[1]
	wpr := (n + 63) / 64
	pp := &ProjPanels{k: k, n: n, wpr: wpr, signs: make([]uint64, k*wpr)}
	for p := 0; p < k; p++ {
		PackSignsInto(pp.signs[p*wpr:(p+1)*wpr], b.Data[p*n:(p+1)*n])
	}
	return pp
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
	for jb := 0; jb < n16; jb += gemmNC {
		w16 := min(gemmNC, n16-jb)
		for pb := 0; pb < k; pb += gemmKC {
			packPanel16(pp.strips[k*jb+pb*w16:], b.Data, n, pb, min(pb+gemmKC, k), jb, jb+w16)
		}
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

// MemoryBytes is the panels' resident storage: K·⌈N/64⌉·8 for sign words,
// the packed strips + tail on the asm path, or the shared dense matrix it
// references on the portable path.
func (pp *ProjPanels) MemoryBytes() int64 {
	switch {
	case pp.signs != nil:
		return int64(len(pp.signs)) * 8
	case pp.dense != nil:
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
	gemmDrive(dst, w, gemmA{a: a.Data, lda: pp.k}, m, &src, c0, c0+w, 0, pp.k, scratch, true)
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
	gemmDrive(dst.Data, pp.n, gemmA{a: a.Data, lda: pp.k}, m, &src, 0, pp.n, 0, pp.k, scratch, true)
}

// MatMulPanelsParallelInto is MatMulPanelsInto for prepacked panels
// (PrepackPanels), with the PanelBlockCols-wide column blocks spread over the
// pool once the product is worth a split (gemmMinSplitFlops, as MatMulInto):
// the training loop's encode against a projection it prepacks once. Each
// block is the serial driver's and prepacked panels need no scratch, so it
// gives MatMulPanelsInto's bits and allocates nothing but the dispatch.
func MatMulPanelsParallelInto(dst, a *Tensor, pp *ProjPanels) {
	if pp.signs != nil {
		panic("tensor: MatMulPanelsParallelInto takes prepacked panels, not sign words")
	}
	m := checkPanelsArgs(a, pp, nil)
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != pp.n {
		panic(fmt.Sprintf("tensor: MatMulPanelsParallelInto dst shape %v, want [%d %d]", dst.Shape, m, pp.n))
	}
	blocks := (pp.n + gemmNC - 1) / gemmNC
	if blocks < 2 || parallel.Workers() <= 1 || 2*m*pp.n*pp.k < gemmMinSplitFlops {
		MatMulPanelsInto(dst, a, pp, nil)
		return
	}
	parallel.For(blocks, 1, func(lo, hi int) {
		c0, c1 := lo*gemmNC, min(hi*gemmNC, pp.n)
		src := gemmB{kind: bPanels, n: pp.n, pp: pp}
		gemmDrive(dst.Data[c0:], pp.n, gemmA{a: a.Data, lda: pp.k}, m, &src, c0, c1, 0, pp.k, nil, true)
	})
}

// MatMulPanelsKBlock writes one K block of a @ B to every column of dst:
// dst[i*ldd+j] = Σ_p a[i*lda+p−pb]·B[p, j], p ∈ [pb, pe), for rows i ∈ [0, m).
// a is a compact tile of that K range only, for an A operand that exists one
// block at a time (the serving tail's signed query block against the class
// strips). [pb, pe) must be one block of the K grid: pb a multiple of
// PanelBlockCols, pe the next one or K. Same kernels and per-element order
// as one K step of MatMulPanelsBlock, and the bits of clearing dst and
// accumulating into it, without the clear (the strip kernels start the block
// at +0 in registers); scratch is needed only by sign-word panels.
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
	gemmDrive(dst, ldd, gemmA{a: a, lda: lda}, m, &src, 0, pp.n, pb, pe, scratch, overwrite)
}

func checkPanelsArgs(a *Tensor, pp *ProjPanels, scratch []float32) (m int) {
	if a.Rank() != 2 {
		panic("tensor: panel GEMM requires a rank-2 LHS")
	}
	m, k := a.Shape[0], a.Shape[1]
	if k != pp.k {
		panic(fmt.Sprintf("tensor: panel GEMM K mismatch: a is [%d %d], panels hold K=%d", m, k, pp.k))
	}
	if pp.signs != nil && len(scratch) < PanelScratch() {
		panic(fmt.Sprintf("tensor: panel GEMM scratch %d < PanelScratch %d", len(scratch), PanelScratch()))
	}
	return m
}

// stripsAt is the panels' half of gemmB.strips: sign words are expanded into
// buf, prepacked strips returned in place — [j0, j1) lies in one NC block
// and [pb, pe) is one K block, the unit they are stored in.
func (pp *ProjPanels) stripsAt(buf []float32, pb, pe, j0, j1 int) []float32 {
	if pp.signs != nil {
		kc := pe - pb
		for js := j0; js < j1; js += gemmNR {
			expandSigns(buf[(js-j0)*kc:], gemmNR, pp.signs[pb*pp.wpr+js>>6:], pp.wpr, kc, uint(js&63))
		}
		return buf
	}
	jb := j0 - j0%gemmNC
	w16 := min(gemmNC, PanelStripCols(pp.n)-jb)
	return pp.strips[pp.k*jb+pb*w16+(j0-jb)*(pe-pb):]
}

// signRows runs one K block ([pb, pe)) of m rows of a against the whole
// strips [j0, j1) of sign-word panels, j0 on an NC block and j1 at most one
// block further, adding ±a[i, p] per bit instead of expanding the strips:
// gemm1x256w takes 256 columns a call, gemm1x64w (256 bits) one word's 64. A
// row's product then costs one pass over the words, where expansion writes
// and rereads 16 floats per strip row and only pays for itself over the rows
// of a 4-row kernel. Each output element keeps the strip kernels' chain — +0,
// one exact ±x per K step in ascending order, then the zero-start add — so
// the bits are those of the expanded strips. A run short of the kernel's
// width writes a spill whose first lanes are copied out, and reads its words
// from a copy in scratch if the kernel would read past the row's last word.
func (pp *ProjPanels) signRows(dst []float32, ldd int, a []float32, lda, m, pb, pe, j0, j1 int, scratch []float32, zero bool) {
	kc, run := pe-pb, 64
	if useGemm512 {
		run = gemmNC
	}
	nw, spill := run>>6, scratch[8*gemmKC:][:run]
	for js := j0; js < j1; js += run {
		w, ldw, cols := pp.signs[pb*pp.wpr+js>>6:], pp.wpr, min(run, j1-js)
		if js>>6+nw > pp.wpr {
			buf := wordsView(scratch, nw*kc)
			for p := range kc {
				copy(buf[nw*p:nw*(p+1)], w[p*ldw:p*ldw+pp.wpr-js>>6])
			}
			w, ldw = buf, nw
		}
		_ = w[(kc-1)*ldw+nw-1]
		for i := range m {
			o := dst[i*ldd+js-j0:][:cols]
			out := o
			if cols < run {
				if out = spill; !zero {
					copy(out, o)
				}
			}
			if useGemm512 {
				gemm1x256w(kc, &a[i*lda], &w[0], ldw, &out[0], zero)
			} else {
				gemm1x64w(kc, &a[i*lda], &w[0], ldw, &out[0], zero)
			}
			if cols < run {
				copy(o, out)
			}
		}
	}
}

// wordsView views the first 2n floats of scratch as n uint64s, as int32s
// views them as int32s: the sign words of a short run, copied.
func wordsView(scratch []float32, n int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&scratch[:2*n][0])), n)
}

// tileAt is the panels' half of gemmB.tile, for the ragged columns (every
// column, on the portable build): sign words expanded into buf — 16 columns
// at a time from a strip boundary, one at a time after it — or a view of the
// dense matrix, or of the prepacked column tail.
func (pp *ProjPanels) tileAt(buf []float32, pb, pe, j0, j1 int) ([]float32, int) {
	switch {
	case pp.signs != nil:
		w, j := j1-j0, j0
		for ; j%gemmNR == 0 && j+gemmNR <= j1; j += gemmNR {
			expandSigns(buf[j-j0:], w, pp.signs[pb*pp.wpr+j>>6:], pp.wpr, pe-pb, uint(j&63))
		}
		for p := pb; p < pe; p++ {
			row := buf[(p-pb)*w:]
			for c := j; c < j1; c++ {
				row[c-j0] = math.Float32frombits(oneBits | uint32(pp.signs[p*pp.wpr+c>>6]>>(c&63)&1)<<31)
			}
		}
		return buf, w
	case pp.dense != nil:
		return pp.dense[pb*pp.n+j0:], pp.n
	}
	n16 := PanelStripCols(pp.n)
	return pp.tail[pb*(pp.n-n16)+j0-n16:], pp.n - n16
}

// expandSigns writes rows strip rows of exactly ±1.0 (never −0): row r, at
// dst[r·ldd:][:16], is bits [shift, shift+16) of w[r·ldw], −1.0 where a bit
// is set. shift ≤ 48 and rows ≥ 1. The 512-bit kernel, the 256-bit one and
// the Go twin write the same bits.
func expandSigns(dst []float32, ldd int, w []uint64, ldw, rows int, shift uint) {
	_, _ = dst[(rows-1)*ldd+gemmNR-1], w[(rows-1)*ldw]
	switch {
	case useGemm512:
		expandSigns512Asm(rows, &w[0], ldw, shift, &dst[0], ldd)
	case useGemmAsm:
		expandSignsAsm(rows, &w[0], ldw, shift, &dst[0], ldd)
	default:
		expandSignsGo(dst, ldd, w, ldw, rows, shift)
	}
}

func expandSignsGo(dst []float32, ldd int, w []uint64, ldw, rows int, shift uint) {
	for r := 0; r < rows; r++ {
		bits := uint32(w[r*ldw] >> shift)
		o := dst[r*ldd : r*ldd+gemmNR]
		for j := range o {
			o[j] = math.Float32frombits(oneBits | (bits>>uint(j)&1)<<31)
		}
	}
}
