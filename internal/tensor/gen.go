package tensor

// Seeded bipolar generation. A BipolarGen defines a [Rows, Cols] ±1 matrix
// purely as a function of a 64-bit seed: entry (r, c) is bit c%64 of a
// splitmix64 counter stream evaluated at index r·⌈Cols/64⌉ + c/64, set for
// −1 — so row r's words are the sign words SignPanels packs from the
// materialized row, up to the bits past the last column, which packing
// leaves clear. Every 64-column word is an independent function of
// (seed, position), so any tile or single element can be generated in
// isolation, and a pipeline snapshot rebuilds the matrix from its seed.
//
// The generated matrix is a fixed public contract: FillInto and FillTile
// reproduce bit-identical values for the same (seed, rows, cols), and
// TestBipolarGenTileConsistency pins it.
type BipolarGen struct {
	Rows, Cols int
	seed       uint64
	wpr        int // 64-bit words per row: ⌈Cols/64⌉
}

// splitmixGamma is the Weyl-sequence increment of splitmix64.
const splitmixGamma = 0x9E3779B97F4A7C15

// NewBipolarGen defines the seeded [rows, cols] ±1 matrix.
func NewBipolarGen(seed int64, rows, cols int) *BipolarGen {
	return &BipolarGen{Rows: rows, Cols: cols, seed: uint64(seed), wpr: (cols + 63) / 64}
}

// word returns the 64-bit sign word covering columns [wi·64, wi·64+64) of
// row r: element (r, wi·64+b) is +1 when bit b is clear, −1 when set — one
// splitmix64 evaluation on the per-(row, word) counter, so words are
// mutually independent and individually addressable.
func (g *BipolarGen) word(r, wi int) uint64 {
	x := g.seed + (uint64(r)*uint64(g.wpr)+uint64(wi)+1)*splitmixGamma
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
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
