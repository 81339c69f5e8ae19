package hdlearn

import (
	"testing"

	"nshd/internal/hdc"
	"nshd/internal/tensor"
)

// TestFoldedScorerSliceAdditive: per-shard partial scores (full-row norm
// fold, sliced columns) sum to exactly the full folded score when the fold
// order is replayed block by block — every per-block float32 value a slice
// emits is bit-identical to the unsliced scorer's value for that block.
func TestFoldedScorerSliceAdditive(t *testing.T) {
	for _, k := range []int{5, 17, 100} { // no strips; one strip + a ragged class; six + four
		testFoldedScorerSliceAdditive(t, k)
	}
}

func testFoldedScorerSliceAdditive(t *testing.T, k int) {
	const d, n = 533, 9
	m := NewModel(k, d)
	tensor.NewRNG(3).FillNormal(m.M, 0, 1)
	m.Invalidate()
	s := NewFoldedScorer(m)
	queries := signedQueries(11, n, d)

	// fold replays one scorer's blocks over query columns [lo, lo+sc.D) into
	// acc, in block order.
	const bc = 256
	bs := make([]float32, n*k)
	fold := func(acc []float64, sc *FoldedScorer, lo int) {
		for c0 := 0; c0 < sc.D; c0 += bc {
			w := min(bc, sc.D-c0)
			tile := make([]float32, n*w)
			for i := 0; i < n; i++ {
				copy(tile[i*w:(i+1)*w], queries.Row(i)[lo+c0:lo+c0+w])
			}
			sc.BlockScores(bs, tile, n, w, c0)
			for i, v := range bs {
				acc[i] += float64(v)
			}
		}
	}
	want := make([]float64, n*k)
	fold(want, s, 0)
	got := make([]float64, n*k)
	for _, rng := range [][2]int{{0, 256}, {256, 512}, {512, 533}} {
		fold(got, s.Slice(rng[0], rng[1]), rng[0])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("K=%d: sharded folded score differs at %d: got %v want %v", k, i, got[i], want[i])
		}
	}
}

// TestPackedModelSliceDotsAdditive: per-shard popcount dots sum exactly to
// the full model's dot for every class, including a ragged final shard, and
// argmax over the summed dots equals predictWords.
func TestPackedModelSliceDotsAdditive(t *testing.T) {
	const k, d = 7, 533
	m := NewModel(k, d)
	tensor.NewRNG(17).FillNormal(m.M, 0, 1)
	m.Invalidate()
	pm := PackModel(m)
	queries := signedQueries(23, 13, d)

	fullDots := make([]int32, k)
	sum := make([]int32, k)
	part := make([]int32, k)
	q := make([]uint64, pm.WordsPerRow())
	for i := 0; i < queries.Shape[0]; i++ {
		row := queries.Row(i)
		hdc.PackRowInto(q, row)
		pm.DotsInto(fullDots, q)

		for j := range sum {
			sum[j] = 0
		}
		for _, rng := range [][2]int{{0, 256}, {256, 512}, {512, 533}} {
			lo, hi := rng[0], rng[1]
			spm := pm.SliceColumns(lo, hi)
			sq := make([]uint64, spm.WordsPerRow())
			hdc.PackRowInto(sq, row[lo:hi])
			spm.DotsInto(part, sq)
			for j := range sum {
				sum[j] += part[j]
			}
		}
		for j := range sum {
			if sum[j] != fullDots[j] {
				t.Fatalf("query %d class %d: shard dot sum %d != full %d", i, j, sum[j], fullDots[j])
			}
		}
		// The serving argmax over the summed dots matches the packed predictor.
		var at [1]int
		ArgmaxScaledInto(at[:], sum, pm.Scales(), 1, k)
		if want := pm.predictWords(q); at[0] != want {
			t.Fatalf("query %d: reduced argmax %d != packed predict %d", i, at[0], want)
		}
	}
}

// TestPackedModelSliceValidation pins the alignment contract.
func TestPackedModelSliceValidation(t *testing.T) {
	m := NewModel(3, 256)
	tensor.NewRNG(1).FillNormal(m.M, 0, 1)
	m.Invalidate()
	pm := PackModel(m)
	if pm.SliceColumns(0, 256) != pm {
		t.Fatal("full-range slice should return the model itself")
	}
	for _, bad := range [][2]int{{-64, 64}, {0, 257}, {128, 128}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SliceColumns(%d, %d) should panic", bad[0], bad[1])
				}
			}()
			pm.SliceColumns(bad[0], bad[1])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unaligned lo should panic")
			}
		}()
		pm.SliceColumns(32, 256)
	}()
}
