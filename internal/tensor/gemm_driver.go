package tensor

// The float blocked-GEMM driver: the one NC → KC → micro-kernel loop nest
// behind MatMulInto / MatMulSerialInto / MatMulAccTSerialInto (gemm.go), the
// panel products (gemm_panels.go), the implicit-GEMM convs (conv_gemm.go,
// conv_tile.go) and the conv training products that read their A operand in
// place (conv_rows.go). Those files only check arguments and describe their
// operands as a gemmA and a gemmB; the schedule lives here, once.
//
// Schedule, and why every entry point agrees bit for bit. An output element
// is a chain of multiply-adds over K, and three things fix that chain:
//
//   - K is walked in gemmKC blocks on the grid anchored at row 0, ascending;
//     within a block p ascends. A caller that walks K itself (one block per
//     call, MatMulPanelsKBlock) must hand over blocks of that grid.
//   - The kernel is chosen on the GLOBAL column grid of B, never relative to
//     the requested range: column j runs the 16-wide FMA strip kernels iff
//     j < PanelStripCols(N), whatever [c0, c1) it is computed in. A range
//     edge that cuts a strip computes the whole strip into a spill buffer and
//     copies out the lanes it owns; the per-lane chains are those of the
//     uncut strip.
//   - gemm4x16 and gemm1x16s keep one accumulator per element, so a row gets
//     the same bits inside a 4-row group and as a leftover row; so do their
//     twins, which differ in where A or B is read or in how many rows and
//     strips share a call.
//
// Nothing else is arithmetic: NC blocking and row grouping only decide which
// independent chains share a packed panel, so any row/column split of a
// product — gemmSplit's jobs, the engine's batch parts, the fused blocks'
// row tiles — reproduces the unsplit result exactly. The ragged columns
// [PanelStripCols(N), N), and every column on the portable build, run the
// 4-row broadcast-AXPY chain of gemmGoPart over a dense tile — on the asm
// build through gemm4xw, its vector twin with the same bits (a transposed
// operand runs the dot kernel instead, as it always has).
//
// Scratch layout, defined here and nowhere else: [0, gemmKC·gemmNC) holds
// whatever the source generates for one (K block, column range) — packed
// strips, or a dense tile; never both at once — and a cut strip's [m, 16]
// spill buffer follows it. Sources that hand out their operand in place
// (prepacked panels, a dense matrix's ragged columns) touch no scratch. A
// conv in offset form (conv_gemm.go) generates nothing per block: its scratch
// is the zero-padded image window, written once per call, which the offset
// kernels read in place of packed strips, and then the gemmKC-entry table of
// the current K block's offsets. A dense B read in place keeps that table in
// scratch's first gemmKC floats, which its strips, read from B, leave unused.
// Sign words read in place (ProjPanels.signRows) generate nothing either: a
// short run's copied words take the first floats and its spill block follows
// them at 8·gemmKC. An A in offset form brings its tables and its source with
// it: the entry points keep them in their own scratch after the driver's.

import "unsafe"

// driverScratch returns the scratch length of a product under that layout.
// The asm build generates strips for every source (prepacked panels aside,
// which need none and ask for none); the portable build has no strips and
// needs the buffer only for a source that generates its dense tiles
// (sign-word panels, convs). spillRows is the output row count of a product
// whose range may cut a strip.
func driverScratch(generates bool, spillRows int) int {
	if !useGemmAsm {
		if generates {
			return gemmKC * gemmNC
		}
		return 0
	}
	return gemmKC*gemmNC + spillRows*gemmNR
}

// gemmB is the right-hand operand of one driver call: a tagged description
// the driver asks for packed strips and dense tiles. A plain struct with a
// switch, not an interface: it lives on the wrapper's stack, so a product
// allocates nothing.
type gemmB struct {
	kind bKind
	n    int // columns of B; fixes the global strip grid

	b []float32 // bDense: [K, n] row-major. bDenseT: Bᵀ, [n, k] row-major
	k int       // bDenseT: row length of b

	// bDense read in place by the offset kernels (see denseB) instead of
	// packed.
	inPlace bool

	pp *ProjPanels // bPanels

	g            ConvGeom  // bConv: im2col(g, x), x holding input rows
	x            []float32 // [xRow0, xRow0+xRows) of every channel
	xRow0, xRows int

	// bConv in offset form, set by convB: the [InC, winH, InW+2·PadW]
	// zero-padded window whose row 0 is the first input row (padding
	// included) that output row winRow0 reads.
	win           []float32
	winH, winRow0 int
}

type bKind uint8

const (
	bDense bKind = iota
	bDenseT
	bPanels
	bConv
)

// gemmA is the left-hand operand of one driver call. Dense: row i at
// a[i·lda:], K step p at a[i·lda + p]. Offset form (rowOff set): element
// (i, p) is a[rowOff[i] + kOff[p]], read in place — a conv's padded window
// with output positions or taps as rows (conv_rows.go), or a matrix read
// transposed (MatMulATSerialInto) — by the A-offset strip kernels, which
// differ from the dense ones in where A is read and in nothing that rounds.
// Its B must be packed (never the in-place dense form) and its ragged
// columns see a dense copy of each row group (gemmRaggedA).
type gemmA struct {
	a            []float32
	lda          int
	rowOff, kOff []int32
}

// at returns the operand whose row 0 and K step 0 are row i and step p.
func (A gemmA) at(i, p int) gemmA {
	if A.rowOff == nil {
		A.a = A.a[i*A.lda+p:]
	} else {
		A.rowOff, A.kOff = A.rowOff[i:], A.kOff[p:]
	}
	return A
}

// bStrips is K rows [pb, pe) of a run of whole 16-column strips as the strip
// kernels read them. Packed form (offs == nil): strip s is b[s·16·(pe−pb):]
// in packPanel16 layout. Offset form (a conv reading its padded window, a
// dense B read in place): the run starts at column ow of an outW-wide output
// row, b[0] is K step 0's value for column 0 of that row, K step p lies
// offs[p] floats further on, and the next output row ldx floats further on.
// Seven words, few enough to come back from strips in registers: a larger
// result is returned through memory that every call zeroes first.
type bStrips struct {
	b             []float32
	offs          *[gemmKC]int32
	ow, outW, ldx int
}

// offsetForm reports whether the source hands its strips to the offset
// kernels — a conv's padded window, a dense B read in place — and so needs
// gemmDrive's offset table.
func (s *gemmB) offsetForm() bool { return s.win != nil || s.inPlace }

// runCols is how many columns of an NC block gemmDrive asks strips for at a
// time: sign-word panels' expanded run, every other source's whole block.
// Runs only regroup independent columns, so they move no bit.
func (s *gemmB) runCols() int {
	if s.kind == bPanels && s.pp.signs != nil {
		return signRunCols
	}
	return gemmNC
}

// signRows reports whether gemmDrive hands the whole strips of an m-row
// product, from column head on, to ProjPanels.signRows instead of asking for
// strips: sign words, fewer rows than the 4-row kernels take, the vector
// kernels live and every strip run starting on an NC block.
func (s *gemmB) signRows(m, head int) bool {
	return useGemmAsm && m < gemmMR && s.kind == bPanels && s.pp.signs != nil && head%gemmNC == 0
}

// strips returns K rows [pb, pe) of the whole 16-column strips [j0, j1),
// generated into buf, in place, or — the conv's offset form and an in-place
// dense B, where offs is given — as addresses into the padded window or into
// B with the K block's table written to offs. [j0, j1)
// lies inside one block of the global gemmNC column grid and [pb, pe) is one
// block of the K grid — the units prepacked panels are stored in.
func (s *gemmB) strips(buf []float32, offs *[gemmKC]int32, pb, pe, j0, j1 int) bStrips {
	switch s.kind {
	case bDense:
		if s.inPlace && offs != nil {
			// K step p of column j is b[p·n + j]: a strip is 16 consecutive
			// floats of one row of B and the next K step one row further on.
			for q := range offs[:pe-pb] {
				offs[q] = int32(q * s.n)
			}
			return bStrips{b: s.b[pb*s.n:], offs: offs, ow: j0, outW: s.n, ldx: s.n}
		}
		packPanel16(buf, s.b, s.n, pb, pe, j0, j1)
	case bDenseT:
		packPanel16T(buf, s.b, s.k, pb, pe, j0, j1)
	case bPanels:
		return bStrips{b: s.pp.stripsAt(buf, pb, pe, j0, j1)}
	case bConv:
		if s.win != nil {
			return s.windowStrips(offs, pb, pe, j0)
		}
		convPackStrips(s.g, s.x, s.xRow0, s.xRows, buf, pb, pe, j0, j1-j0)
	}
	return bStrips{b: buf}
}

// tile returns K rows [pb, pe) of columns [j0, j1) as a dense row-major tile
// and its leading dimension, generated into buf or in place. Not defined for
// bDenseT, whose ragged columns the driver sends to the dot kernel.
func (s *gemmB) tile(buf []float32, pb, pe, j0, j1 int) ([]float32, int) {
	switch s.kind {
	case bDense:
		return s.b[pb*s.n+j0:], s.n
	case bPanels:
		return s.pp.tileAt(buf, pb, pe, j0, j1)
	case bConv:
		im2colTile(s.g, s.x, s.xRow0, s.xRows, buf, j1-j0, pb, pe, j0, j1)
		return buf, j1 - j0
	}
	panic("tensor: no dense tile for a transposed operand")
}

// gemmDrive adds Σ_p A[i, p]·B[p, j] over p ∈ [k0, k1) to output element
// (i, j) for rows i ∈ [0, m) and B's columns j ∈ [c0, c1) — or, when
// overwrite is set, writes the sum as if those elements had been cleared
// first. Element (i, j) lives at dst[i*ldd + j − c0] and A's (i, p) at
// a[i*lda + p − k0], so a compact output tile and an A operand that exists
// one K block at a time are both just leading dimensions. k0 must be a
// multiple of gemmKC.
//
// Overwrite clears nothing the strip kernels write: their first K block adds
// its sums to +0 in registers instead of to the loaded output (the kernels'
// zero flag), the bits of clear-then-accumulate. Only the ragged columns,
// which the AXPY and dot kernels accumulate into in memory, are cleared —
// every column, on the portable build.
func gemmDrive(dst []float32, ldd int, A gemmA, m int, src *gemmB,
	c0, c1, k0, k1 int, scratch []float32, overwrite bool) {
	if m == 0 || c0 >= c1 {
		return
	}
	if A.rowOff != nil && src.offsetForm() {
		panic("tensor: an A in offset form needs a packed B")
	}
	// Strip columns of the range, on the global grid: a cut head strip
	// [c0, head), whole strips [head, body), a cut tail strip [body, cm).
	n16 := PanelStripCols(src.n)
	if cm := min(c1, n16); c0 < cm {
		head := min((c0+gemmNR-1)&^(gemmNR-1), cm)
		body := max(cm&^(gemmNR-1), head)
		var offs *[gemmKC]int32
		if src.offsetForm() {
			offs = offsTable(scratch[len(src.win):])
		}
		run, words := src.runCols(), src.signRows(m, head)
		for jb := head; jb < body; {
			je := min(jb-jb%gemmNC+gemmNC, body)
			for pb := k0; pb < k1; pb += gemmKC {
				pe := min(pb+gemmKC, k1)
				if words {
					src.pp.signRows(dst[jb-c0:], ldd, A.a[pb-k0:], A.lda, m, pb, pe, jb, je, scratch, overwrite && pb == k0)
					continue
				}
				for rb := jb; rb < je; rb += run {
					re := min(rb+run, je)
					bs, zero := src.strips(scratch, offs, pb, pe, rb, re), overwrite && pb == k0
					if A.rowOff != nil {
						gemmStripPartA(dst[rb-c0:], ldd, A.at(0, pb-k0), m, bs.b, pe-pb, (re-rb)/gemmNR, zero)
					} else {
						gemmStripPart(dst[rb-c0:], ldd, A.a[pb-k0:], A.lda, m, bs, pe-pb, (re-rb)/gemmNR, zero)
					}
				}
			}
			jb = je
		}
		if c0 < head {
			gemmCutStrip(dst, ldd, A, m, src, c0&^(gemmNR-1), c0, head, k0, k1, scratch, overwrite)
		}
		if body < cm {
			gemmCutStrip(dst[body-c0:], ldd, A, m, src, body, body, cm, k0, k1, scratch, overwrite)
		}
	}
	// Ragged columns: fewer than 16 on the asm build, the whole range on the
	// portable one.
	if r0 := max(c0, n16); overwrite && r0 < c1 {
		for i := 0; i < m; i++ {
			clear(dst[i*ldd+r0-c0 : i*ldd+c1-c0])
		}
	}
	for jb := max(c0, n16); jb < c1; {
		je := min(jb-jb%gemmNC+gemmNC, c1)
		for pb := k0; pb < k1; pb += gemmKC {
			pe := min(pb+gemmKC, k1)
			var tile []float32
			ldb := src.k
			if src.kind == bDenseT {
				tile = src.b[jb*src.k+pb:]
			} else {
				tile, ldb = src.tile(scratch, pb, pe, jb, je)
			}
			if A.rowOff != nil {
				gemmRaggedA(dst[jb-c0:], ldd, A.at(0, pb-k0), m, src.kind == bDenseT, tile, ldb, pe-pb, je-jb)
			} else if src.kind == bDenseT {
				gemmDotPart(dst[jb-c0:], ldd, A.a[pb-k0:], A.lda, m, tile, ldb, pe-pb, je-jb)
			} else {
				gemmRaggedPart(dst[jb-c0:], ldd, A.a[pb-k0:], A.lda, m, tile, ldb, pe-pb, je-jb)
			}
		}
		jb = je
	}
}

// offsTable is the offset kernels' K-block table, held in the first gemmKC
// floats of scratch (both element types are four bytes and hold no
// pointers). Nothing clears it: a K block writes every entry it reads.
func offsTable(scratch []float32) *[gemmKC]int32 {
	return (*[gemmKC]int32)(unsafe.Pointer((*[gemmKC]float32)(scratch)))
}

// int32s views the first n floats of scratch as int32s, as offsTable does:
// the A-offset tables of the products that keep them in their scratch.
func int32s(scratch []float32, n int) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&scratch[:n][0])), n)
}

// gemmCutStrip accumulates lanes [lo, hi) of the 16-column strip at global
// column strip0 — a strip the range's edge cuts — or, with overwrite, writes
// them as gemmDrive does. The whole strip runs, all of K, in an [m, 16] spill
// buffer seeded with the owned lanes of dst (dst[0] is row 0's lane lo; with
// overwrite nothing is seeded and the first K block starts at +0) and copied
// back: exactly the kernels and K order of the uncut strip, so cut and uncut
// agree bit for bit. The unowned lanes compute garbage nobody reads.
func gemmCutStrip(dst []float32, ldd int, A gemmA, m int, src *gemmB,
	strip0, lo, hi, k0, k1 int, scratch []float32, overwrite bool) {
	if src.win != nil || A.rowOff != nil {
		// Offset form means whole-row ranges of a map whose rows are whole
		// strips; its scratch is the window and has no spill buffer. An A in
		// offset form is always asked for whole columns.
		panic("tensor: a product in offset form cannot cut a strip")
	}
	spill := scratch[gemmKC*gemmNC:][:m*gemmNR]
	if !overwrite {
		clear(spill)
		for i := 0; i < m; i++ {
			copy(spill[i*gemmNR+lo-strip0:i*gemmNR+hi-strip0], dst[i*ldd:])
		}
	}
	for pb := k0; pb < k1; pb += gemmKC {
		pe := min(pb+gemmKC, k1)
		gemmStripPart(spill, gemmNR, A.a[pb-k0:], A.lda, m, src.strips(scratch, nil, pb, pe, strip0, strip0+gemmNR), pe-pb, 1, overwrite && pb == k0)
	}
	for i := 0; i < m; i++ {
		copy(dst[i*ldd:i*ldd+hi-lo], spill[i*gemmNR+lo-strip0:])
	}
}

// next returns, in offset form, the window position of the strip after the
// one at (base, ow): base indexes x at the strip's K step 0, ow is its column
// in the output row. The first strip of a run is at (bs.ow, bs.ow).
func (bs *bStrips) next(base, ow int) (int, int) {
	if ow += gemmNR; ow == bs.outW {
		return base + gemmNR + bs.ldx - bs.outW, 0
	}
	return base + gemmNR, ow
}

// gemmStripPart runs one K block (kc deep) of m rows of A against a run of ns
// strips: the 4-row micro-kernel over every full 4-row group, then the 1-row
// strip kernel over leftover rows — all rows of a skinny product such as a
// batch-1 serving GEMM — which reuses the strips and accumulates in the same
// per-element order as a row inside a group. Packed strips go to gemm4x16 /
// gemm1x16s, a conv's window addresses to their offset twins, which differ in
// where B is read and in nothing that rounds. With useGemm512, rows go eight
// at a time and strips two at a time to the 8×32 kernels first (a single
// row's strips four at a time to the 1×64 ones), and only the rows and the
// odd strip left over to the 256-bit kernels; each lane's chain is the same
// in all of them, so the width moves no bit. zero is the kernels' flag: the
// outputs are taken as +0 instead of loaded.
func gemmStripPart(dst []float32, ldd int, a []float32, lda, m int, bs bStrips, kc, ns int, zero bool) {
	i := 0
	if useGemm512 && ns >= 2 {
		for ; i+2*gemmMR <= m; i += 2 * gemmMR {
			base, ow := bs.ow, bs.ow
			s := 0
			for ; s+2 <= ns; s += 2 {
				ai, o := &a[i*lda], &dst[i*ldd+s*gemmNR]
				if bs.offs == nil {
					gemm8x32(kc, ai, lda, &bs.b[s*gemmNR*kc], &bs.b[(s+1)*gemmNR*kc], o, ldd, zero)
					continue
				}
				base1, ow1 := bs.next(base, ow)
				gemm8x32o(kc, ai, lda, &bs.b[base], &bs.b[base1], &bs.offs[0], o, ldd, zero)
				base, ow = bs.next(base1, ow1)
			}
			if s < ns { // the odd strip out
				gemmStripRows4(dst[i*ldd:], ldd, a[i*lda:], lda, bs, kc, s, ns, base, ow, zero)
				gemmStripRows4(dst[(i+gemmMR)*ldd:], ldd, a[(i+gemmMR)*lda:], lda, bs, kc, s, ns, base, ow, zero)
			}
		}
	}
	for ; i+gemmMR <= m; i += gemmMR {
		gemmStripRows4(dst[i*ldd:], ldd, a[i*lda:], lda, bs, kc, 0, ns, bs.ow, bs.ow, zero)
	}
	for ; i < m; i++ {
		ai, o := &a[i*lda], dst[i*ldd:]
		if bs.offs == nil {
			s := 0
			if useGemm512 && ns >= 4 {
				gemm1x64s(kc, ns/4, ai, &bs.b[0], &o[0], zero)
				s = ns &^ 3
			}
			if s < ns {
				gemm1x16s(kc, ns-s, ai, &bs.b[s*gemmNR*kc], &o[s*gemmNR], zero)
			}
			continue
		}
		// One run per output row the strips touch: within a row they are 16
		// floats apart, as the 1-row offset kernels walk them.
		base, ow := bs.ow, bs.ow
		for s := 0; s < ns; {
			seg := min((bs.outW-ow)/gemmNR, ns-s)
			q := 0
			if useGemm512 && seg >= 4 {
				gemm1x64so(kc, seg/4, ai, &bs.b[base], &bs.offs[0], &o[s*gemmNR], zero)
				q = seg &^ 3
			}
			if q < seg {
				gemm1x16so(kc, seg-q, ai, &bs.b[base+q*gemmNR], &bs.offs[0], &o[(s+q)*gemmNR], zero)
			}
			s += seg
			base, ow = base+seg*gemmNR+bs.ldx-bs.outW, 0
		}
	}
}

// gemmStripRows4 runs the 256-bit 4-row kernels over strips [s0, s1) for the
// four rows at a and dst; in offset form strip s0 is at window position
// (base, ow).
func gemmStripRows4(dst []float32, ldd int, a []float32, lda int, bs bStrips, kc, s0, s1, base, ow int, zero bool) {
	a0, a1, a2, a3 := &a[0], &a[lda], &a[2*lda], &a[3*lda]
	for s := s0; s < s1; s++ {
		o := dst[s*gemmNR:]
		if bs.offs == nil {
			gemm4x16(kc, a0, a1, a2, a3, &bs.b[s*gemmNR*kc], &o[0], &o[ldd], &o[2*ldd], &o[3*ldd], zero)
			continue
		}
		gemm4x16o(kc, a0, a1, a2, a3, &bs.b[base], &bs.offs[0], &o[0], &o[ldd], &o[2*ldd], &o[3*ldd], zero)
		base, ow = bs.next(base, ow)
	}
}

// gemmStripPartA is gemmStripPart for an A in offset form against packed
// strips: rows eight at a time where the 512-bit kernels are live, four at a
// time on the 256-bit ones, and each leftover row alone (stripsA). Every row
// is its own chains whichever kernel takes it, so the grouping moves no bit.
func gemmStripPartA(dst []float32, ldd int, A gemmA, m int, bp []float32, kc, ns int, zero bool) {
	x, kOff := &A.a[0], &A.kOff[0]
	i := 0
	if useGemm512 {
		for ; i+2*gemmMR <= m; i += 2 * gemmMR {
			stripsA(dst[i*ldd:], ldd, x, &A.rowOff[i], kOff, 2*gemmMR, bp, kc, ns, zero)
		}
	}
	for ; i+gemmMR <= m; i += gemmMR {
		stripsA(dst[i*ldd:], ldd, x, &A.rowOff[i], kOff, gemmMR, bp, kc, ns, zero)
	}
	for ; i < m; i++ {
		r := A.rowOff[i]
		one := [gemmMR]int32{r, r, r, r}
		stripsA(dst[i*ldd:], 0, x, &one[0], kOff, 1, bp, kc, ns, zero)
	}
}

// stripsA runs one row group of an A-offset product over strips [0, ns):
// eight rows (ro the first of eight offsets) to gemm8x32a, the odd strip to
// gemm8x16a; four rows, or one row with its offset four times and ldd = 0,
// to gemm4x16a strip by strip.
func stripsA(dst []float32, ldd int, x *float32, ro, kOff *int32, rows int, bp []float32, kc, ns int, zero bool) {
	strip := func(s int) *float32 { return &bp[s*gemmNR*kc] }
	if rows < 2*gemmMR {
		for s := 0; s < ns; s++ {
			gemm4x16a(kc, x, ro, kOff, strip(s), &dst[s*gemmNR], ldd, zero)
		}
		return
	}
	s := 0
	for ; s+2 <= ns; s += 2 {
		gemm8x32a(kc, x, ro, kOff, strip(s), strip(s+1), &dst[s*gemmNR], ldd, zero)
	}
	if s < ns {
		gemm8x16a(kc, x, ro, kOff, strip(s), &dst[s*gemmNR], ldd, zero)
	}
}

// gemmRaggedA runs the ragged columns of one K block (kc deep) for an A in
// offset form: each group of up to four rows is copied into a dense [rows, kc]
// tile and handed to the kernel the dense operand's columns run — the dot
// kernel against a transposed B (dot), gemmRaggedPart otherwise. Neither
// kernel's bits depend on how rows are grouped, so the copy moves none.
func gemmRaggedA(dst []float32, ldd int, A gemmA, m int, dot bool, b []float32, ldb, kc, w int) {
	var rows [gemmMR * gemmKC]float32
	for i := 0; i < m; i += gemmMR {
		r := min(gemmMR, m-i)
		for q := 0; q < r; q++ {
			row, base := rows[q*kc:][:kc], A.a[A.rowOff[i+q]:]
			for p, off := range A.kOff[:kc] {
				row[p] = base[off]
			}
		}
		if dot {
			gemmDotPart(dst[i*ldd:], ldd, rows[:], kc, r, b, ldb, kc, w)
		} else {
			gemmRaggedPart(dst[i*ldd:], ldd, rows[:], kc, r, b, ldb, kc, w)
		}
	}
}

// gemmRaggedPart is gemmGoPart's product on the kernel the build has: where
// the strip kernels run, the w < 16 columns right of the last whole strip go
// four rows at a time to gemm4xw, which computes the twin's bits, and only
// the leftover rows to the twin itself.
func gemmRaggedPart(dst []float32, ldd int, a []float32, lda, m int, b []float32, ldb, kc, w int) {
	i := 0
	if useGemmAsm && w < gemmNR {
		_ = b[(kc-1)*ldb+w-1]
		for ; i+gemmMR <= m; i += gemmMR {
			_, _ = a[(i+3)*lda+kc-1], dst[(i+3)*ldd+w-1]
			gemm4xw(kc, w, &a[i*lda], lda, &b[0], ldb, &dst[i*ldd], ldd)
		}
	}
	if i < m {
		gemmGoPart(dst[i*ldd:], ldd, a[i*lda:], lda, m-i, b, ldb, kc, w)
	}
}

// gemmGoPart is the portable kernel: dst[i*ldd+j] += Σ_p a[i*lda+p]·b[p*ldb+j]
// for i < m, p < kc, j < w, as a 4-row broadcast-AXPY over contiguous B row
// segments. Each B element loaded once serves four output rows, and the NC
// blocking keeps the four active output segments L1-resident.
func gemmGoPart(dst []float32, ldd int, a []float32, lda, m int, b []float32, ldb, kc, w int) {
	i := 0
	for ; i+gemmMR <= m; i += gemmMR {
		o0 := dst[i*ldd : i*ldd+w]
		o1 := dst[(i+1)*ldd : (i+1)*ldd+w]
		o2 := dst[(i+2)*ldd : (i+2)*ldd+w]
		o3 := dst[(i+3)*ldd : (i+3)*ldd+w]
		for p := 0; p < kc; p++ {
			axpy4(a[i*lda+p], a[(i+1)*lda+p], a[(i+2)*lda+p], a[(i+3)*lda+p], b[p*ldb:p*ldb+w], o0, o1, o2, o3)
		}
	}
	for ; i < m; i++ {
		o0 := dst[i*ldd : i*ldd+w]
		for p := 0; p < kc; p++ {
			axpy1(a[i*lda+p], b[p*ldb:p*ldb+w], o0)
		}
	}
}

// axpy4 computes o_r += av_r * brow for four rows, reusing each loaded B
// element four times. Each product is rounded before its add — the float32
// conversion keeps a compiler that fuses multiply-adds (the Go spec allows
// it) from making it one FMA — which is the chain gemm4xw computes.
func axpy4(av0, av1, av2, av3 float32, brow, o0, o1, o2, o3 []float32) {
	o0 = o0[:len(brow)]
	o1 = o1[:len(brow)]
	o2 = o2[:len(brow)]
	o3 = o3[:len(brow)]
	for j, bv := range brow {
		o0[j] += float32(av0 * bv)
		o1[j] += float32(av1 * bv)
		o2[j] += float32(av2 * bv)
		o3[j] += float32(av3 * bv)
	}
}

func axpy1(av float32, brow, o0 []float32) {
	o0 = o0[:len(brow)]
	for j, bv := range brow {
		o0[j] += float32(av * bv)
	}
}

// gemmDotPart accumulates dst[i*ldd+j] += a[i*lda:][:kc] · bt[j*ldb:][:kc]
// for a transposed operand: the portable kernel of the transposed-B product,
// and on the asm build its ragged column tail (DotFast's bits, through the
// dot tile kernels).
func gemmDotPart(dst []float32, ldd int, a []float32, lda, m int, bt []float32, ldb, kc, w int) {
	dotTile(dst, ldd, a, lda, m, bt, ldb, w, kc, true)
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
// strip column j at depth p is bt[(js+j)·k+p]. Each strip row is gathered
// from the 16 source rows at one depth and written whole: 16 sequential read
// streams, one sequential write, twice the rate of reading one source row at
// a time and scattering it at stride 16. The transpose happens inside the
// pack, never as a matrix in memory.
func packPanel16T(buf, bt []float32, k, pb, pe, jb, jfullEnd int) {
	kc := pe - pb
	for js := jb; js < jfullEnd; js += gemmNR {
		strip := buf[(js-jb)*kc:][:kc*gemmNR]
		src := bt[js*k+pb:]
		for p := 0; p < kc; p++ {
			o, s := strip[p*gemmNR:][:gemmNR], src[p:]
			o[0], o[1], o[2], o[3] = s[0], s[k], s[2*k], s[3*k]
			o[4], o[5], o[6], o[7] = s[4*k], s[5*k], s[6*k], s[7*k]
			o[8], o[9], o[10], o[11] = s[8*k], s[9*k], s[10*k], s[11*k]
			o[12], o[13], o[14], o[15] = s[12*k], s[13*k], s[14*k], s[15*k]
		}
	}
}
