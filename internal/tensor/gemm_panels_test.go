package tensor

import (
	"fmt"
	"math"
	"testing"
	"time"

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

	// The materialized matrix's sign words are the generator's words (up to
	// the bits past column 133, which packing leaves clear), and their strips
	// expand to packPanel16 of the materialized matrix.
	sp := SignPanels(full)
	for r := 0; r < 37; r++ {
		for wi := 0; wi < sp.wpr; wi++ {
			want := g.word(r, wi)
			if wi == sp.wpr-1 {
				want &= 1<<(133%64) - 1
			}
			if got := sp.signs[r*sp.wpr+wi]; got != want {
				t.Fatalf("row %d word %d: packed %#x, generated %#x", r, wi, got, want)
			}
		}
	}
	pb, pe, jb, je := 4, 33, 16, 128
	kc := pe - pb
	want := make([]float32, kc*(je-jb))
	packPanel16(want, full.Data, 133, pb, pe, jb, je)
	got := sp.stripsAt(make([]float32, kc*(je-jb)), pb, pe, jb, je)
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
	{8, 16, 70},     // tiny everything, ragged N
	{1, 100, 3000},  // single sample, paper shapes
	{0, 100, 256},   // empty batch
	{0, 300, 40},    // empty batch, two K blocks
	{5, 257, 300},   // K spans two K-blocks with remainder
	{7, 64, 256},    // exactly one NC block
	{3, 33, 257},    // one column past the NC block
	{6, 512, 1000},  // multiple K blocks, ragged N
	{4, 10, 16},     // exactly one strip
	{9, 20, 15},     // below one strip: pure Go tail
	{2, 300, 530},   // three NC blocks, ragged tail
	{32, 100, 3000}, // a joint training batch: MatMulPanelsParallelInto splits
	{13, 300, 3001}, // two K blocks, split, ragged tail
}

// TestMatMulPanelsMatchesSerial pins the bit-exactness contract: prepacked
// and sign-word panel products equal MatMulSerialInto on the materialized
// matrix, element for element, for both the full-width and the
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
					"signs":   SignPanels(b),
				} {
					got := New(s.m, s.n)
					MatMulPanelsInto(got, a, pp, pscratch)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s m=%d k=%d n=%d: full product differs at %d: got %v want %v",
								name, s.m, s.k, s.n, i, got.Data[i], want.Data[i])
						}
					}
					if name == "prepack" {
						MatMulPanelsParallelInto(got, a, pp)
						for i := range want.Data {
							if got.Data[i] != want.Data[i] {
								t.Fatalf("parallel m=%d k=%d n=%d: full product differs at %d: got %v want %v",
									s.m, s.k, s.n, i, got.Data[i], want.Data[i])
							}
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

// TestAccumPanelsKBlock pins the accumulating K-block walk (panelsKBlock) —
// the product turned on its side, the caller walking K with a compact A tile
// per block — against MatMulPanelsInto, bit for bit, for both backings; and,
// as the asm-vs-portable differential, compares the two builds' walks (fused
// vs separately rounded multiply-adds: the O(√K·ε) bound of
// TestMatMulMatchesNaive). The first three shapes are class-memory panels: N
// a multiple of 16 (no ragged tail), below and above one NC block.
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

				for name, pp := range map[string]*ProjPanels{"prepack": prepack, "signs": SignPanels(b)} {
					got := New(s.m, s.n)
					for pb := 0; pb < s.k; pb += PanelBlockCols() {
						pe := min(pb+PanelBlockCols(), s.k)
						tile := make([]float32, 0, s.m*(pe-pb))
						for i := 0; i < s.m; i++ {
							tile = append(tile, a.Row(i)[pb:pe]...)
						}
						panelsKBlock(got.Data, s.n, tile, pe-pb, s.m, pp, pb, pe, pscratch, false)
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
		"unaligned start": func() { panelsKBlock(dst, 32, a, 256, 1, pp, 16, 272, nil, false) },
		"short block":     func() { panelsKBlock(dst, 32, a, 256, 1, pp, 0, 100, nil, false) },
		"two blocks":      func() { panelsKBlock(dst, 32, a, 256, 1, pp, 0, 512, nil, false) },
		"past K":          func() { panelsKBlock(dst, 32, a, 256, 1, pp, 512, 768, nil, false) },
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

// TestSignPanelsMatchPrepacked: sign words and prepacked float strips of one
// ±1 matrix are the same operand, bit for bit, at widths off every run,
// strip and block edge, at the batch sizes of each strip kernel and across
// K block edges.
func TestSignPanelsMatchPrepacked(t *testing.T) {
	for _, n := range []int{16, 65, 257, 3000, 10000} {
		for _, k := range []int{1, 100, 257} {
			b := New(k, n)
			NewBipolarGen(int64(n+k), k, n).FillInto(b)
			prepacked, signs := PrepackPanels(b), SignPanels(b)
			scratch := make([]float32, PanelScratch())
			for _, m := range []int{1, 3, 8, 64} {
				a := randMat(int64(m+k), m, k)
				x, y := New(m, n), New(m, n)
				MatMulPanelsInto(x, a, prepacked, scratch)
				MatMulPanelsInto(y, a, signs, scratch)
				if i := bitsDiffer(x.Data, y.Data); i >= 0 {
					t.Fatalf("n=%d k=%d m=%d: element %d prepacked %v, sign words %v", n, k, m, i, x.Data[i], y.Data[i])
				}
			}
		}
	}
}

// TestProjPanelsMemoryBytes: sign words cost K·⌈N/64⌉·8 bytes, the packed
// projection's analytic size; prepacked panels cost the float matrix.
func TestProjPanelsMemoryBytes(t *testing.T) {
	b := New(100, 3000)
	NewBipolarGen(1, 100, 3000).FillInto(b)
	if got := SignPanels(b).MemoryBytes(); got != 100*47*8 {
		t.Fatalf("sign panels report %d bytes, want %d", got, 100*47*8)
	}
	if got := PrepackPanels(b).MemoryBytes(); got != 100*3000*4 {
		t.Fatalf("prepacked panels report %d bytes, want %d", got, 100*3000*4)
	}
}

// TestExpandSignStrip: every 16-bit pattern, at each of a word's four strip
// offsets, expands to exactly ±1.0 — −1.0 where its bit is set, never −0 —
// through the 512-bit kernel, the 256-bit one and the Go twin, over runs of
// 1, 7, 100 and 256 rows whose words lie 1 and 47 apart, into rows 16 and 19
// floats apart; the other 48 bits of a word are random, and nothing outside
// a row's 16 floats is written.
func TestExpandSignStrip(t *testing.T) {
	const patterns = 1 << 16
	sentinel := uint32(0x7fc00bad) // a NaN no expansion writes
	rng := NewRNG(3)
	for _, mode := range []struct {
		name      string
		asm, wide bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}} {
		runWithGemm512(mode.wide, func() {
			runWithAsm(mode.asm, func() {
				for _, rows := range []int{1, 7, 100, 256} {
					for _, ldw := range []int{1, 47} {
						for _, ldd := range []int{gemmNR, gemmNR + 3} {
							w := make([]uint64, (rows-1)*ldw+1)
							dst := make([]float32, (rows-1)*ldd+gemmNR)
							for q0 := 0; q0 < patterns; q0 += rows {
								shift := uint(q0/rows%4) * 16
								for r := 0; r < rows; r++ {
									pat := uint64((q0 + r) % patterns)
									w[r*ldw] = rng.Uint64()&^(0xffff<<shift) | pat<<shift
								}
								for i := range dst {
									dst[i] = math.Float32frombits(sentinel)
								}
								expandSigns(dst, ldd, w, ldw, rows, shift)
								for i, v := range dst {
									r, j := i/ldd, i%ldd
									want := sentinel
									if j < gemmNR {
										want = oneBits | uint32((q0+r)%patterns>>j&1)<<31
									}
									if got := math.Float32bits(v); got != want {
										t.Fatalf("%s rows=%d ldw=%d ldd=%d shift=%d: pattern %#04x lane %d is %#x, want %#x",
											mode.name, rows, ldw, ldd, shift, (q0+r)%patterns, j, got, want)
									}
								}
							}
						}
					}
				}
			})
		})
	}
}

// BenchmarkPanelGEMM is the projection product at the paper's shape (F̂ = 100,
// D = 3000) from a stored matrix, prepacked float strips and sign words, at
// batch 1, 2, 3, 8 and 64, at both kernel widths. Below four rows the sign
// words run two ways: "signs" expands them into strips for the strip kernels
// (expandedSignsInto), "direct" is MatMulPanelsInto, which at 512 bits reads
// them in place (signRows). The cold rows time batches 1 to 3 with L2
// evicted between calls (per-call ns/call, the eviction untimed), as a
// serving tail meets its operand after the extractor has run: warm, the
// prepacked strips sit in L2 and the ranking reverses.
func BenchmarkPanelGEMM(b *testing.B) {
	const k, n = 100, 3000
	mat := New(k, n)
	NewBipolarGen(3, k, n).FillInto(mat)
	scratch := make([]float32, GemmScratch())
	pscratch := make([]float32, PanelScratch())
	prepack, signs := PrepackPanels(mat), SignPanels(mat)
	evict := make([]byte, 8<<20) // four times this machine's L2
	for _, m := range []int{1, 2, 3, 8, 64} {
		a := New(m, k)
		NewRNG(9).FillNormal(a, 0, 1)
		out := New(m, n)
		type product struct {
			name string
			run  func()
		}
		products := []product{
			{"stored", func() { MatMulSerialInto(out, a, mat, scratch) }},
			{"prepack", func() { MatMulPanelsInto(out, a, prepack, pscratch) }},
			{"signs", func() { MatMulPanelsInto(out, a, signs, pscratch) }},
		}
		if m < gemmMR {
			products[2].run = func() { expandedSignsInto(out.Data, a, signs, pscratch, true) }
			products = append(products, product{"direct", func() { MatMulPanelsInto(out, a, signs, pscratch) }})
		}
		for _, p := range products {
			tensortest.BenchWidths(b, benchName(p.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.run()
				}
			})
		}
		for _, p := range products[1:] {
			if m >= gemmMR || m > 1 && p.name == "prepack" {
				continue
			}
			tensortest.BenchWidths(b, benchName(p.name, m)+"-cold", func(b *testing.B) {
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					for j := 0; j < len(evict); j += 64 {
						evict[j]++
					}
					t0 := time.Now()
					p.run()
					spent += time.Since(t0)
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/call")
			})
		}
	}
}

func benchName(kind string, m int) string {
	return fmt.Sprintf("%s/batch%d", kind, m)
}

// expandedSignsInto writes (overwrite) or adds a @ B into dst ([M, N]) for
// sign-word panels the way the driver runs them when the words are not read in
// place: each K block of each one-word run expanded by stripsAt and handed to
// gemmStripPart, whatever the row count, and the ragged columns through
// gemmDrive. It is the reference of the one-row products (signRows) and the
// "signs" rows of BenchmarkPanelGEMM at batch 1 to 3.
func expandedSignsInto(dst []float32, a *Tensor, pp *ProjPanels, scratch []float32, overwrite bool) {
	m, k, n16 := a.Shape[0], pp.k, PanelStripCols(pp.n)
	for jb := 0; jb < n16; jb += gemmNC {
		je := min(jb+gemmNC, n16)
		for pb := 0; pb < k; pb += gemmKC {
			pe := min(pb+gemmKC, k)
			for rb := jb; rb < je; rb += 64 {
				re := min(rb+64, je)
				bs := bStrips{b: pp.stripsAt(scratch, pb, pe, rb, re)}
				gemmStripPart(dst[rb:], pp.n, a.Data[pb:], k, m, bs, pe-pb, (re-rb)/gemmNR, overwrite && pb == 0)
			}
		}
	}
	src := gemmB{kind: bPanels, n: pp.n, pp: pp}
	gemmDrive(dst[n16:], pp.n, gemmA{a: a.Data, lda: k}, m, &src, n16, pp.n, 0, k, scratch, overwrite)
}

// signRowGo is the Go reference of gemm1x256w and gemm1x64w over their cols
// columns: column j starts at +0 and adds, K step by K step, x_p where its
// bit is clear and 0 − x_p where it is set (a NaN pick wins over a NaN sum,
// as the multiplicand does in the FMA), and the sum is added to +0 (zero) or
// to o[j].
func signRowGo(cols, kc int, a []float32, w []uint64, ldw int, o []float32, zero bool) {
	for j := range cols {
		var acc float32
		for p := range kc {
			x := a[p]
			if w[p*ldw+j>>6]>>(j&63)&1 != 0 {
				x = 0 - x
			}
			if x != x {
				acc = x + 0 // the quieted pick, sign kept, whatever acc is
			} else {
				acc += x
			}
		}
		if zero {
			o[j] = acc + 0
		} else {
			o[j] += acc
		}
	}
}

// signFeatures returns m rows of k features, normal draws salted with the
// values a sign flip could get wrong. Every set has ±0 and denormals; set 1
// adds ±Inf, so some columns meet Inf − Inf; set 2 adds NaNs of four
// payloads, quiet and signalling, of both signs, several to a row.
func signFeatures(seed int64, m, k, set int) *Tensor {
	a := randMat(seed, m, k)
	nans := []uint32{0x7fc00001, 0xffc00002, 0x7f800003, 0xff800004}
	for i := range m {
		row := a.Row(i)
		for p := range row {
			switch q := (p*7 + i*3) % 11; {
			case q == 0:
				row[p] = float32(math.Copysign(0, float64(1-2*(p&1))))
			case q == 1:
				row[p] = math.Float32frombits(uint32(p+1)) * float32(1-2*(i&1))
			case set >= 1 && q == 2 && p%3 == 0:
				row[p] = float32(math.Inf(1 - 2*(p&1)))
			case set == 2 && q == 5 && (p+i)%4 != 3:
				row[p] = math.Float32frombits(nans[(p+i)%4])
			}
		}
	}
	return a
}

// TestSignRowsMatchExpansion is the lattice of the one-row products: for 1 to
// 3 rows, K across one and several K blocks, N below a strip, on strip and
// block edges and past many blocks, every block offset, the three feature
// sets, an overwriting and an accumulating start, the sign words
// read in place give the expansion path's bits — at 512 bits and at forced
// 256 bits, where they run, and on the portable build, which keeps
// expanding.
func TestSignRowsMatchExpansion(t *testing.T) {
	for _, mode := range []struct {
		name      string
		asm, wide bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}} {
		if !runWithGemm512(mode.wide, func() {
			runWithAsm(mode.asm, func() { signRowsLattice(t, mode.name) })
		}) {
			t.Logf("%s: not on this machine", mode.name)
		}
	}
}

func signRowsLattice(t *testing.T, mode string) {
	scratch := make([]float32, PanelScratch())
	for _, k := range []int{1, 100, 256, 257, 2048} {
		for _, n := range []int{1, 15, 16, 64, 184, 256, 3000} {
			b := New(k, n)
			NewBipolarGen(int64(k*n), k, n).FillInto(b)
			pp := SignPanels(b)
			for m := 1; m <= 3; m++ {
				for set := range 3 {
					a := signFeatures(int64(k+m), m, k, set)
					seed := randMat(int64(n), m, n).Data
					want, got := make([]float32, m*n), make([]float32, m*n)
					where := fmt.Sprintf("%s m=%d k=%d n=%d features=%d", mode, m, k, n, set)

					expandedSignsInto(want, a, pp, scratch, true)
					MatMulPanelsInto(FromSlice(got, m, n), a, pp, scratch)
					if i := bitsDiffer(got, want); i >= 0 {
						t.Fatalf("%s: element %d is %#x, expansion %#x", where, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					for c0 := 0; c0 < n; c0 += PanelBlockCols() {
						w := MatMulPanelsBlock(got, a, pp, c0, scratch)
						for i := range m {
							if j := bitsDiffer(got[i*w:(i+1)*w], want[i*n+c0:]); j >= 0 {
								t.Fatalf("%s: block c0=%d row %d lane %d differs", where, c0, i, j)
							}
						}
					}

					copy(want, seed)
					copy(got, seed)
					expandedSignsInto(want, a, pp, scratch, false)
					for pb := 0; pb < k; pb += PanelBlockCols() {
						pe := min(pb+PanelBlockCols(), k)
						tile := make([]float32, 0, m*(pe-pb))
						for i := range m {
							tile = append(tile, a.Row(i)[pb:pe]...)
						}
						panelsKBlock(got, n, tile, pe-pb, m, pp, pb, pe, scratch, false)
					}
					if i := bitsDiffer(got, want); i >= 0 {
						t.Fatalf("%s accumulating: element %d is %#x, expansion %#x", where, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestSignRowKernelsMatchGo: both widths' kernels against their Go reference,
// bit for bit, over K steps 1 to 256, word strides of a short run's copy (4)
// and of a D = 3 000 matrix (47), both starts, the three feature sets and an
// output seeded with Inf and NaN lanes.
func TestSignRowKernelsMatchGo(t *testing.T) {
	for _, k := range []struct {
		name string
		cols int
		live bool
		run  func(kc int, a *float32, w *uint64, ldw int, o *float32, zero bool)
	}{{"gemm1x256w", gemmNC, useGemm512, gemm1x256w}, {"gemm1x64w", 64, useGemmAsm, gemm1x64w}} {
		if !k.live {
			t.Logf("%s: not on this machine", k.name)
			continue
		}
		rng := NewRNG(5)
		for _, kc := range []int{1, 2, 17, 100, 256} {
			for _, ldw := range []int{4, 47} {
				w := make([]uint64, (kc-1)*ldw+4)
				for i := range w {
					w[i] = rng.Uint64()
				}
				for set := range 3 {
					a := signFeatures(int64(kc*ldw), 1, kc, set).Data
					for _, zero := range []bool{true, false} {
						seed := randMat(int64(kc), 1, k.cols).Data
						seed[3], seed[37] = float32(math.Inf(-1)), math.Float32frombits(0x7fc0beef)
						got, want := append([]float32(nil), seed...), append([]float32(nil), seed...)
						k.run(kc, &a[0], &w[0], ldw, &got[0], zero)
						signRowGo(k.cols, kc, a, w, ldw, want, zero)
						if i := bitsDiffer(got, want); i >= 0 {
							t.Fatalf("%s kc=%d ldw=%d features=%d zero=%v: lane %d is %#x, reference %#x",
								k.name, kc, ldw, set, zero, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}
