package tensor

import "fmt"

// Seeded bipolar generation. A BipolarGen defines a [Rows, Cols] ±1 matrix
// purely as a function of a 64-bit seed: entry (r, c) is bit c%64 of a
// splitmix64 counter stream evaluated at index r·⌈Cols/64⌉ + c/64. Because
// every 64-column word is an independent function of (seed, position), any
// tile, strip or single row can be regenerated in isolation — random access,
// not sequential replay — which is what lets the GEMM panel packer
// rematerialize projection panels on the fly instead of streaming a stored
// D×F matrix (the hypervector-rematerialization idea: the model "is" the
// seed).
//
// The generated matrix is a fixed public contract: FillInto, FillTile and
// the panel kernels in gemm_panels.go all reproduce bit-identical values for
// the same (seed, rows, cols), and TestBipolarGenTileConsistency pins it.
type BipolarGen struct {
	Rows, Cols int
	seed       uint64
	wpr        int // 64-bit words per row of the FULL matrix: ⌈fullCols/64⌉
	// blockMap, when non-nil, gathers a pruned column subset: generated word
	// wi is full-matrix word blockMap[wi] (see GatherBlocks). The map is
	// word-granular, which is why pruning happens in 64-aligned blocks.
	blockMap []int
}

// splitmixGamma is the Weyl-sequence increment of splitmix64.
const splitmixGamma = 0x9E3779B97F4A7C15

// bipolarLUT maps a sign byte to its eight ±1 float32 values (bit clear →
// +1), so unpacking runs as two table copies per 16 elements instead of 16
// shift-and-convert steps.
var bipolarLUT = func() (lut [256][8]float32) {
	for b := range lut {
		for i := 0; i < 8; i++ {
			lut[b][i] = 1 - 2*float32((b>>i)&1)
		}
	}
	return
}()

// NewBipolarGen defines the seeded [rows, cols] ±1 matrix.
func NewBipolarGen(seed int64, rows, cols int) *BipolarGen {
	return &BipolarGen{Rows: rows, Cols: cols, seed: uint64(seed), wpr: (cols + 63) / 64}
}

// Seed returns the defining seed.
func (g *BipolarGen) Seed() int64 { return int64(g.seed) }

// GatherBlocks returns a generator for the concatenation of the kept column
// blocks of g: keep lists ascending block indices over g's [0, Cols) grid of
// `block`-wide blocks (block a multiple of 64, so every kept block starts on
// a word boundary), and entry (r, c) of the result is bit-identical to g's
// entry in the corresponding original column. Only the final original block
// may be ragged, and ascending order keeps it last, so the gathered matrix's
// one partial word is its last — exactly the invariant the panel kernels and
// sign-packing already handle. This is what lets a dimension-pruned engine
// keep rematerializing its surviving projection columns from the original
// 8-byte seed plus the block list.
func (g *BipolarGen) GatherBlocks(keep []int, block int) *BipolarGen {
	if g.blockMap != nil {
		panic("tensor: BipolarGen.GatherBlocks on a gathered generator")
	}
	if block <= 0 || block%64 != 0 {
		panic("tensor: BipolarGen.GatherBlocks block must be a positive multiple of 64")
	}
	nb := (g.Cols + block - 1) / block
	var cols int
	var bm []int
	prev := -1
	for _, b := range keep {
		if b <= prev || b >= nb {
			panic(fmt.Sprintf("tensor: BipolarGen.GatherBlocks block %d not ascending in [0, %d)", b, nb))
		}
		prev = b
		lo := b * block
		hi := lo + block
		if hi > g.Cols {
			hi = g.Cols
		}
		cols += hi - lo
		for w := lo >> 6; w < (hi+63)>>6; w++ {
			bm = append(bm, w)
		}
	}
	if cols == 0 {
		panic("tensor: BipolarGen.GatherBlocks keeps no blocks")
	}
	return &BipolarGen{Rows: g.Rows, Cols: cols, seed: g.seed, wpr: g.wpr, blockMap: bm}
}

// rawWord is splitmix64's output function on the per-(row, word) counter of
// the FULL matrix's word grid, so words are mutually independent and
// individually addressable.
func (g *BipolarGen) rawWord(r, wi int) uint64 {
	x := g.seed + (uint64(r)*uint64(g.wpr)+uint64(wi)+1)*splitmixGamma
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// word returns the 64-bit sign word covering columns [wi·64, wi·64+64) of
// row r: element (r, wi·64+b) is +1 when bit b is clear, −1 when set — one
// splitmix64 evaluation.
func (g *BipolarGen) word(r, wi int) uint64 {
	if g.blockMap != nil {
		wi = g.blockMap[wi]
	}
	return g.rawWord(r, wi)
}

// at returns element (r, c) as ±1.
func (g *BipolarGen) at(r, c int) float32 {
	return 1 - 2*float32((g.word(r, c>>6)>>uint(c&63))&1)
}

// FillInto materializes the whole matrix into t ([Rows, Cols]).
func (g *BipolarGen) FillInto(t *Tensor) {
	if t.Rank() != 2 || t.Shape[0] != g.Rows || t.Shape[1] != g.Cols {
		panic("tensor: BipolarGen.FillInto shape mismatch")
	}
	g.FillTile(t.Data, g.Cols, 0, g.Rows, 0, g.Cols)
}

// FillTile materializes rows [r0,r1) × cols [c0,c1) into dst, a row-major
// tile with leading dimension ld whose (0,0) corresponds to (r0,c0).
func (g *BipolarGen) FillTile(dst []float32, ld, r0, r1, c0, c1 int) {
	for r := r0; r < r1; r++ {
		row := dst[(r-r0)*ld:]
		c := c0
		for c < c1 {
			run := 64 - c&63
			if run > c1-c {
				run = c1 - c
			}
			w := g.word(r, c>>6) >> uint(c&63)
			for b := 0; b < run; b++ {
				row[c-c0+b] = 1 - 2*float32(w&1)
				w >>= 1
			}
			c += run
		}
	}
}

// fillStrips generates rows [pb,pe) × cols [jb,jfullEnd) directly in the
// GEMM's packed-panel layout (16-wide column strips, p-major within each
// strip — the layout packPanel16 produces from a stored matrix). jb and
// jfullEnd must be multiples of 16, so each strip's 16 columns always sit
// inside one 64-bit generator word.
func (g *BipolarGen) fillStrips(buf []float32, pb, pe, jb, jfullEnd int) {
	si := 0
	for js := jb; js < jfullEnd; js += 16 {
		wi := js >> 6
		sh := uint(js & 63)
		for p := pb; p < pe; p++ {
			w := g.word(p, wi) >> sh
			s := buf[si : si+16 : si+16]
			copy(s[:8], bipolarLUT[w&0xff][:])
			copy(s[8:], bipolarLUT[(w>>8)&0xff][:])
			si += 16
		}
	}
}
