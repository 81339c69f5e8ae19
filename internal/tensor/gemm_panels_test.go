package tensor

import (
	"fmt"
	"math"
	"testing"

	"nshd/internal/tensor/tensortest"
)

// TestBipolarGenTileConsistency: every access path — full fill, arbitrary
// tiles, strip fill, single elements — reproduces the same matrix, and the
// matrix is ±1-valued and seed-deterministic.
func TestBipolarGenTileConsistency(t *testing.T) {
	g := NewBipolarGen(42, 37, 133)
	full := New(37, 133)
	g.FillInto(full)
	for _, v := range full.Data {
		if v != 1 && v != -1 {
			t.Fatalf("non-bipolar value %v", v)
		}
	}
	g2 := NewBipolarGen(42, 37, 133)
	full2 := New(37, 133)
	g2.FillInto(full2)
	for i := range full.Data {
		if full.Data[i] != full2.Data[i] {
			t.Fatalf("same seed produced different matrices at %d", i)
		}
	}
	g3 := NewBipolarGen(43, 37, 133)
	full3 := New(37, 133)
	g3.FillInto(full3)
	same := 0
	for i := range full.Data {
		if full.Data[i] == full3.Data[i] {
			same++
		}
	}
	if same == len(full.Data) {
		t.Fatal("different seeds produced identical matrices")
	}

	// Awkward unaligned tile.
	r0, r1, c0, c1 := 3, 29, 17, 130
	ld := c1 - c0
	tile := make([]float32, (r1-r0)*ld)
	g.FillTile(tile, ld, r0, r1, c0, c1)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			if tile[(r-r0)*ld+(c-c0)] != full.Data[r*133+c] {
				t.Fatalf("tile mismatch at (%d,%d)", r, c)
			}
		}
	}
	if g.at(5, 77) != full.Data[5*133+77] {
		t.Fatal("element access disagrees with full fill")
	}

	// Strip fill reproduces packPanel16 of the materialized matrix.
	pb, pe, jb, je := 4, 33, 16, 128
	kc := pe - pb
	want := make([]float32, kc*(je-jb))
	packPanel16(want, full.Data, 133, pb, pe, jb, je)
	got := make([]float32, kc*(je-jb))
	g.fillStrips(got, pb, pe, jb, je)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strip mismatch at %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestBipolarGenBalance sanity-checks the sign distribution: a grossly
// biased generator would break the quasi-orthogonality the projection
// relies on.
func TestBipolarGenBalance(t *testing.T) {
	g := NewBipolarGen(7, 100, 1000)
	m := New(100, 1000)
	g.FillInto(m)
	pos := 0
	for _, v := range m.Data {
		if v > 0 {
			pos++
		}
	}
	frac := float64(pos) / float64(len(m.Data))
	if frac < 0.49 || frac > 0.51 {
		t.Fatalf("sign fraction %v, want ~0.5", frac)
	}
}

// panelShapes are deliberately awkward: K and N off the 256 blocks, N off
// the 16-wide strips, single rows, empty batches.
var panelShapes = []struct{ m, k, n int }{
	{8, 16, 70},    // tiny everything, ragged N
	{1, 100, 3000}, // single sample, paper shapes
	{0, 100, 256},  // empty batch
	{0, 300, 40},   // empty batch, two K blocks
	{5, 257, 300},  // K spans two K-blocks with remainder
	{7, 64, 256},   // exactly one NC block
	{3, 33, 257},   // one column past the NC block
	{6, 512, 1000}, // multiple K blocks, ragged N
	{4, 10, 16},    // exactly one strip
	{9, 20, 15},    // below one strip: pure Go tail
	{2, 300, 530},  // three NC blocks, ragged tail
}

// TestMatMulPanelsMatchesSerial pins the bit-exactness contract: prepacked
// and rematerialized panel products equal MatMulSerialInto on the
// materialized matrix, element for element, for both the full-width and the
// per-block entry points.
func TestMatMulPanelsMatchesSerial(t *testing.T) {
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			scratch := make([]float32, GemmScratch())
			pscratch := make([]float32, PanelScratch())
			for _, s := range panelShapes {
				gen := NewBipolarGen(int64(s.m*1000+s.n), s.k, s.n)
				b := New(s.k, s.n)
				gen.FillInto(b)
				a := New(s.m, s.k)
				NewRNG(int64(s.k)).FillNormal(a, 0, 1)

				want := New(s.m, s.n)
				MatMulSerialInto(want, a, b, scratch)

				for name, pp := range map[string]*ProjPanels{
					"prepack": PrepackPanels(b),
					"remat":   RematPanels(gen),
				} {
					got := New(s.m, s.n)
					MatMulPanelsInto(got, a, pp, pscratch)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s m=%d k=%d n=%d: full product differs at %d: got %v want %v",
								name, s.m, s.k, s.n, i, got.Data[i], want.Data[i])
						}
					}
					for c0 := 0; c0 < s.n; c0 += PanelBlockCols() {
						blk := make([]float32, s.m*PanelBlockCols())
						w := MatMulPanelsBlock(blk, a, pp, c0, pscratch)
						for i := 0; i < s.m; i++ {
							for j := 0; j < w; j++ {
								if blk[i*w+j] != want.Data[i*s.n+c0+j] {
									t.Fatalf("%s m=%d k=%d n=%d: block c0=%d differs at (%d,%d)",
										name, s.m, s.k, s.n, c0, i, j)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestAccumPanelsKBlock pins the K-block entry — the product turned on its
// side, the caller walking K with a compact A tile per block — against
// MatMulPanelsInto, bit for bit, for both backings; and, as the
// asm-vs-portable differential, compares the
// two builds' walks (fused vs separately rounded multiply-adds: the O(√K·ε)
// bound of TestMatMulMatchesNaive). The first three shapes are class-memory
// panels: N a multiple of 16 (no ragged tail), below and above one NC block.
func TestAccumPanelsKBlock(t *testing.T) {
	shapes := append([]struct{ m, k, n int }{{5, 700, 96}, {65, 513, 304}, {1, 256, 16}}, panelShapes...)
	pscratch := make([]float32, PanelScratch())
	walks := map[bool][]*Tensor{}
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			for _, s := range shapes {
				gen := NewBipolarGen(int64(s.m*1000+s.n), s.k, s.n)
				b := New(s.k, s.n)
				gen.FillInto(b)
				a := New(s.m, s.k)
				NewRNG(int64(s.k)).FillNormal(a, 0, 1)
				prepack := PrepackPanels(b)
				want := New(s.m, s.n)
				MatMulPanelsInto(want, a, prepack, pscratch)
				walks[asm] = append(walks[asm], want)

				for name, pp := range map[string]*ProjPanels{"prepack": prepack, "remat": RematPanels(gen)} {
					got := New(s.m, s.n)
					for pb := 0; pb < s.k; pb += PanelBlockCols() {
						pe := min(pb+PanelBlockCols(), s.k)
						tile := make([]float32, 0, s.m*(pe-pb))
						for i := 0; i < s.m; i++ {
							tile = append(tile, a.Row(i)[pb:pe]...)
						}
						AccumPanelsKBlock(got.Data, s.n, tile, pe-pb, s.m, pp, pb, pe, pscratch)
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("asm=%v %s m=%d k=%d n=%d: K-block walk differs at %d: got %v want %v",
								asm, name, s.m, s.k, s.n, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		})
	}
	for i := range walks[true] { // empty without AVX2, or off amd64
		s := shapes[i]
		tol := 1e-6 * (4 + math.Sqrt(float64(s.k))*4)
		if d := maxRelDiff(walks[false][i], walks[true][i]); d > tol {
			t.Errorf("shape %dx%dx%d: asm vs portable rel diff %g > %g", s.m, s.k, s.n, d, tol)
		}
	}
}

// TestAccumPanelsKBlockPanics: ranges off the K grid are refused.
func TestAccumPanelsKBlockPanics(t *testing.T) {
	pp := PrepackPanels(New(600, 32))
	dst, a := make([]float32, 32), make([]float32, 256)
	for name, f := range map[string]func(){
		"unaligned start": func() { AccumPanelsKBlock(dst, 32, a, 256, 1, pp, 16, 272, nil) },
		"short block":     func() { AccumPanelsKBlock(dst, 32, a, 256, 1, pp, 0, 100, nil) },
		"two blocks":      func() { AccumPanelsKBlock(dst, 32, a, 256, 1, pp, 0, 512, nil) },
		"past K":          func() { AccumPanelsKBlock(dst, 32, a, 256, 1, pp, 512, 768, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPrepackPanelsAgainstRemat: packing a stored matrix and wrapping its
// generator describe the same operator.
func TestPrepackPanelsAgainstRemat(t *testing.T) {
	gen := NewBipolarGen(99, 100, 530)
	b := New(100, 530)
	gen.FillInto(b)
	a := New(6, 100)
	NewRNG(5).FillNormal(a, 0, 1)
	scratch := make([]float32, PanelScratch())
	x := New(6, 530)
	y := New(6, 530)
	MatMulPanelsInto(x, a, PrepackPanels(b), scratch)
	MatMulPanelsInto(y, a, RematPanels(gen), scratch)
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatalf("prepack vs remat differ at %d", i)
		}
	}
}

// TestProjPanelsMemoryBytes: rematerialized panels cost a seed; prepacked
// panels cost the matrix.
func TestProjPanelsMemoryBytes(t *testing.T) {
	gen := NewBipolarGen(1, 100, 3000)
	if got := RematPanels(gen).MemoryBytes(); got != 8 {
		t.Fatalf("remat panels report %d bytes, want 8", got)
	}
	b := New(100, 3000)
	gen.FillInto(b)
	if got := PrepackPanels(b).MemoryBytes(); got != 100*3000*4 {
		t.Fatalf("prepacked panels report %d bytes, want %d", got, 100*3000*4)
	}
}

func BenchmarkPanelGEMM(b *testing.B) {
	const k, n = 100, 3000
	gen := NewBipolarGen(3, k, n)
	mat := New(k, n)
	gen.FillInto(mat)
	scratch := make([]float32, GemmScratch())
	pscratch := make([]float32, PanelScratch())
	for _, m := range []int{1, 64} {
		a := New(m, k)
		NewRNG(9).FillNormal(a, 0, 1)
		out := New(m, n)
		tensortest.BenchWidths(b, benchName("stored", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulSerialInto(out, a, mat, scratch)
			}
		})
		pp := PrepackPanels(mat)
		tensortest.BenchWidths(b, benchName("prepack", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulPanelsInto(out, a, pp, pscratch)
			}
		})
		rp := RematPanels(gen)
		tensortest.BenchWidths(b, benchName("remat", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulPanelsInto(out, a, rp, pscratch)
			}
		})
	}
}

func benchName(kind string, m int) string {
	return fmt.Sprintf("%s/batch%d", kind, m)
}
