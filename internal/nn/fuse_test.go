package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
	"nshd/internal/tensor/tensortest"
)

// TestTileGrid checks the planner's grid rule over every output height up to
// 97, every cap and a range of worker counts: tiles cover [0, outH) once and
// in order, none is taller than the cap, heights are equal to within one row,
// a block that fits one tile stays one tile, and a block that does not gets a
// multiple of the worker count whenever it has the rows for it.
func TestTileGrid(t *testing.T) {
	for outH := 1; outH <= 97; outH++ {
		for maxRows := 1; maxRows <= outH; maxRows++ {
			for _, w := range []int{1, 2, 3, 4, 8} {
				cuts := tileGrid(outH, maxRows, w)
				n := len(cuts) - 1
				need := (outH + maxRows - 1) / maxRows
				even := (need + w - 1) / w * w
				switch {
				case n < 1 || n > outH || cuts[0] != 0 || cuts[n] != outH:
					t.Fatalf("tileGrid(%d, %d, %d) = %v: not a cover of [0, %d) by 1..%d tiles", outH, maxRows, w, cuts, outH, outH)
				case need == 1 && n != 1:
					t.Fatalf("tileGrid(%d, %d, %d) = %v: a one-tile block was cut", outH, maxRows, w, cuts)
				case need > 1 && even <= outH && n != even:
					t.Fatalf("tileGrid(%d, %d, %d) = %v: %d tiles, want %d (a multiple of the workers)", outH, maxRows, w, cuts, n, even)
				case need > 1 && even > outH && n != need:
					t.Fatalf("tileGrid(%d, %d, %d) = %v: %d tiles, want the %d the cap needs", outH, maxRows, w, cuts, n, need)
				}
				lo, hi := outH, 0
				for i := 0; i < n; i++ {
					h := cuts[i+1] - cuts[i]
					lo, hi = min(lo, h), max(hi, h)
				}
				if lo < 1 || hi > maxRows || hi-lo > 1 {
					t.Fatalf("tileGrid(%d, %d, %d) = %v: heights %d..%d, cap %d", outH, maxRows, w, cuts, lo, hi, maxRows)
				}
			}
		}
	}
}

// vgg96Chain is the block the benchmark's embedded_large workload spends its
// time in — the zoo vgg16's first four convs at 96×96 — which the default
// budget cuts in more than one tile.
func vgg96Chain(trng *tensor.RNG) (*Sequential, []int) {
	return NewSequential("vgg96",
		NewConv2D(trng, 3, 16, 3, 1, 1, true), NewReLU(),
		NewConv2D(trng, 16, 16, 3, 1, 1, true), NewReLU(), NewMaxPool2D(2),
		NewConv2D(trng, 16, 32, 3, 1, 1, true), NewReLU(),
		NewConv2D(trng, 32, 32, 3, 1, 1, true), NewReLU(),
	), []int{3, 96, 96}
}

// checkVGG96Grid pins the planned grid of the 96×96 block: its 48 output rows
// in an even multiple-of-workers grid (2×24 on two cores, where the tallest
// tile the budget allows would have left 36+12).
func checkVGG96Grid(t *testing.T, g FuseGrid) {
	t.Helper()
	if g.Tiles < 2 || g.Tiles%parallel.Workers() != 0 || g.Rows != (48+g.Tiles-1)/g.Tiles || g.HaloShare <= 0 {
		t.Fatalf("96x96 grid %v on %d workers: want an even multi-tile grid over 48 rows", g, parallel.Workers())
	}
}

// randomFuseChain builds a random conv[+bn][+act][+pool] chain (optionally
// flatten-terminated) that stays spatially valid from a random input shape,
// with randomized weights and running statistics, and whose every conv
// writes rows of at least fuseMinCols: one fused run. Returns the model and
// the input shape.
func randomFuseChain(rng *rand.Rand, trng *tensor.RNG) (*Sequential, []int) {
	c := 1 + rng.Intn(4)
	h := 6 + rng.Intn(12)
	w := fuseMinCols + rng.Intn(24)
	in := []int{c, h, w}
	var layers []Layer
	nUnits := 1 + rng.Intn(3)
	for u := 0; u < nUnits; u++ {
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		outC := 1 + rng.Intn(24)
		conv := NewConv2D(trng, c, outC, k, stride, pad, rng.Intn(2) == 0)
		g := conv.geom(h, w)
		if g.Validate() != nil || g.OutW() < fuseMinCols {
			conv = NewConv2D(trng, c, outC, 1, 1, 0, true)
			g = conv.geom(h, w)
		}
		layers = append(layers, conv)
		c, h, w = outC, g.OutH(), g.OutW()
		if rng.Intn(2) == 0 {
			bn := NewBatchNorm2D(c)
			trng.FillNormal(bn.Gamma.W, 1, 0.3)
			trng.FillNormal(bn.Beta.W, 0, 0.5)
			trng.FillNormal(bn.RunMean, 0, 0.5)
			trng.FillUniform(bn.RunVar, 0.2, 2.0)
			layers = append(layers, bn)
		}
		switch rng.Intn(3) {
		case 0:
			layers = append(layers, NewReLU())
		case 1:
			layers = append(layers, NewReLU6())
		}
		last := u == nUnits-1
		if pk := 2 + rng.Intn(2); rng.Intn(2) == 0 && h/pk > 0 && (w/pk >= fuseMinCols || last && w/pk > 0) {
			layers = append(layers, NewMaxPool2D(pk))
			h, w = h/pk, w/pk
		}
	}
	if rng.Intn(2) == 0 {
		layers = append(layers, NewFlatten())
	}
	return NewSequential("chain", layers...), in
}

// runBitCompare runs model unfused and fused on the same input and fails on
// the first differing output bit.
func runBitCompare(t *testing.T, model, fused *Sequential, in []int, n int, trng *tensor.RNG, tag string) {
	t.Helper()
	x := tensor.New(append([]int{n}, in...)...)
	trng.FillNormal(x, 0, 1)

	ar := tensor.NewArena()
	xa := ar.Alloc(x.Shape...)
	copy(xa.Data, x.Data)
	want := model.ForwardInfer(xa, ar)

	ar2 := tensor.NewArena()
	xb := ar2.Alloc(x.Shape...)
	copy(xb.Data, x.Data)
	got := fused.ForwardInfer(xb, ar2)

	if !got.SameShape(want) {
		t.Fatalf("%s: fused shape %v, want %v", tag, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: fused[%d]=%v, unfused=%v", tag, i, got.Data[i], want.Data[i])
		}
	}
}

// lowerFuseGate drops the size gate for the test's duration so the small
// random chains fuse (what FuseMinMACs is a var for).
func lowerFuseGate(t *testing.T) {
	saved := FuseMinMACs
	FuseMinMACs = 0
	t.Cleanup(func() { FuseMinMACs = saved })
}

// gateSkips reports whether the chain is the one shape the planner leaves
// unfused at any size: a single conv unit with no pool.
func gateSkips(model *Sequential) bool {
	convs, pools := 0, 0
	for _, l := range model.Layers {
		switch l.(type) {
		case *Conv2D:
			convs++
		case *MaxPool2D:
			pools++
		}
	}
	return convs == 1 && pools == 0
}

// TestFusedBlockMatchesUnfused pins the tiled fused executor bit-identical
// to the layer-by-layer inference pass across randomized chains (kernel,
// stride, pad, BN, activation, pool, flatten) and randomized overridden tile
// heights — including single-row tiles, where every halo is taller than the
// tile, and grids whose tiles differ by a row — then on the grid the planner
// itself gives the 96×96 vgg16 block.
func TestFusedBlockMatchesUnfused(t *testing.T) {
	lowerFuseGate(t)
	rng := rand.New(rand.NewSource(41))
	trng := tensor.NewRNG(43)
	fusedTrials := 0
	for trial := 0; trial < 48; trial++ {
		model, in := randomFuseChain(rng, trng)
		fused := FuseInference(model, in[0], in[1], in[2])
		if gateSkips(model) {
			if fused != model {
				t.Fatalf("trial %d: a single pool-less conv must stay unfused", trial)
			}
			continue
		}
		if fused == model {
			t.Fatalf("trial %d: gate at zero did not rewrite %v", trial, model.Label)
		}
		fusedTrials++
		hasBlock := false
		for _, l := range fused.Layers {
			if _, ok := l.(*FusedBlock); ok {
				hasBlock = true
			}
		}
		if !hasBlock {
			t.Fatalf("trial %d: no FusedBlock in fused model", trial)
		}
		n := 1 + rng.Intn(2)
		runBitCompare(t, model, fused, in, n, trng, "whole-map tiles")

		// Re-fuse with a tiny overridden tile height to exercise the multi-tile
		// schedule with halos larger than the tile.
		saved := fuseTileRowsOverride
		fuseTileRowsOverride = 1 + rng.Intn(3)
		tiny := FuseInference(model, in[0], in[1], in[2])
		fuseTileRowsOverride = saved
		runBitCompare(t, model, tiny, in, n, trng, "tiny tiles")
	}
	if fusedTrials < 30 {
		t.Fatalf("only %d of 48 random chains fused; the property is under-sampled", fusedTrials)
	}

	// The planner's own multi-tile grid, under the default budget: one sample
	// (tiles are the only items) and three (items cross sample boundaries).
	model, in := vgg96Chain(trng)
	fused := FuseInference(model, in[0], in[1], in[2])
	checkVGG96Grid(t, fused.Layers[0].(*FusedBlock).Grid())
	runBitCompare(t, model, fused, in, 1, trng, "96x96 grid")
	runBitCompare(t, model, fused, in, 3, trng, "96x96 grid")
}

// TestFusedBlockPartitionsBitEqual pins the partitioned executor (several
// fuseParts splitting the sample×tile grid, each with its own buffers)
// bit-identical to the single-partition serial schedule.
func TestFusedBlockPartitionsBitEqual(t *testing.T) {
	lowerFuseGate(t)
	rng := rand.New(rand.NewSource(47))
	trng := tensor.NewRNG(53)
	for trial := 0; trial < 10; trial++ {
		model, in := randomFuseChain(rng, trng)
		saved := fuseTileRowsOverride
		fuseTileRowsOverride = 2
		serial := FuseInference(model, in[0], in[1], in[2])
		split := FuseInference(model, in[0], in[1], in[2])
		fuseTileRowsOverride = saved
		for _, l := range split.Layers {
			if blk, ok := l.(*FusedBlock); ok {
				blk.nParts = 1 + rng.Intn(4) // before any run is built
			}
		}
		runBitCompare(t, serial, split, in, 3, trng, "partitioned")
	}
}

// TestFuseInferenceGate checks the size gate: a tiny chain stays unfused at
// the default FuseMinMACs and fuses once the gate is lowered, and fusing
// shares (not copies) the parameters.
func TestFuseInferenceGate(t *testing.T) {
	trng := tensor.NewRNG(59)
	conv := NewConv2D(trng, 3, 4, 3, 1, 1, true)
	model := NewSequential("tiny", conv, NewReLU(), NewMaxPool2D(2), NewFlatten())
	if got := FuseInference(model, 3, 16, 16); got != model {
		t.Fatalf("tiny chain fused under default gate")
	}
	lowerFuseGate(t)
	fused := FuseInference(model, 3, 16, 16)
	if fused == model {
		t.Fatalf("lowered gate did not fuse")
	}
	if len(fused.Layers) != 1 {
		t.Fatalf("fused model has %d layers, want 1 (block absorbs flatten)", len(fused.Layers))
	}
	blk, ok := fused.Layers[0].(*FusedBlock)
	if !ok {
		t.Fatalf("fused layer is %T, want *FusedBlock", fused.Layers[0])
	}
	ps := blk.Params()
	if len(ps) != 2 || ps[0] != conv.Weight || ps[1] != conv.Bias {
		t.Fatalf("fused block must share the original parameters")
	}
	wantShape := model.OutShape([]int{3, 16, 16})
	gotShape := blk.OutShape([]int{3, 16, 16})
	if len(gotShape) != 1 || gotShape[0] != wantShape[0] {
		t.Fatalf("OutShape = %v, want %v", gotShape, wantShape)
	}
	if blk.Stats([]int{3, 16, 16}) != model.Stats([]int{3, 16, 16}) {
		t.Fatalf("fused Stats differ from unfused")
	}
}

// TestFuseRunEndsBeforeNarrowMaps pins the width rule: VGG16's cut-29 stack
// at 32×32 fuses its 32- and 16-wide convs into one block and leaves every
// conv from the 8×8 maps on, narrower than one strip, to the unfused layers
// (even with the size gate at zero), bit for bit the unfused pass.
func TestFuseRunEndsBeforeNarrowMaps(t *testing.T) {
	lowerFuseGate(t)
	trng := tensor.NewRNG(60)
	var layers []Layer
	c := 3
	for _, stage := range []struct{ outC, convs int }{{16, 2}, {32, 2}, {64, 3}, {128, 3}, {128, 3}} {
		for i := 0; i < stage.convs; i++ {
			layers = append(layers, NewConv2D(trng, c, stage.outC, 3, 1, 1, true), NewReLU())
			c = stage.outC
		}
		layers = append(layers, NewMaxPool2D(2))
	}
	model := NewSequential("vgg29", layers[:len(layers)-1]...)
	fused := FuseInference(model, 3, 32, 32)
	blk, ok := fused.Layers[0].(*FusedBlock)
	if !ok || len(blk.units) != 4 || blk.outW != 8 {
		t.Fatalf("first layer %s, want a 4-unit block ending in the pool to 8×8", fused.Layers[0].Name())
	}
	for _, l := range fused.Layers[1:] {
		if _, ok := l.(*FusedBlock); ok {
			t.Fatalf("%s fused a conv on a map narrower than %d", l.Name(), fuseMinCols)
		}
	}
	if len(fused.Layers) != 1+len(model.Layers)-len(blk.leaves) {
		t.Fatalf("fused model has %d layers, want the block and %d unfused", len(fused.Layers), len(model.Layers)-len(blk.leaves))
	}
	runBitCompare(t, model, fused, []int{3, 32, 32}, 3, trng, "vgg29")
}

// TestFusedBlockZeroAllocSteadyState pins the fused inference pass at zero
// heap allocations once the arena is frozen.
func TestFusedBlockZeroAllocSteadyState(t *testing.T) {
	trng := tensor.NewRNG(61)
	model := NewSequential("z",
		NewConv2D(trng, 3, 8, 3, 1, 1, false),
		NewBatchNorm2D(8),
		NewReLU(),
		NewMaxPool2D(2),
		NewConv2D(trng, 8, 12, 3, 1, 1, true),
		NewReLU(),
		NewFlatten(),
	)
	lowerFuseGate(t)
	saved := fuseTileRowsOverride
	fuseTileRowsOverride = 3
	fused := FuseInference(model, 3, 32, 32)
	fuseTileRowsOverride = saved
	if len(fused.Layers) != 1 {
		t.Fatalf("fused model has %d layers, want one block", len(fused.Layers))
	}

	x := tensor.New(2, 3, 32, 32)
	trng.FillNormal(x, 0, 1)
	ar := tensor.NewArena()
	for i := 0; i < 3; i++ { // grow the arena and the run freelist
		xa := ar.Alloc(x.Shape...)
		copy(xa.Data, x.Data)
		fused.ForwardInfer(xa, ar)
		ar.Reset()
	}
	ar.Freeze()
	if a := testing.AllocsPerRun(50, func() {
		xa := ar.Alloc(x.Shape...)
		copy(xa.Data, x.Data)
		fused.ForwardInfer(xa, ar)
		ar.Reset()
	}); a != 0 {
		t.Fatalf("fused ForwardInfer allocated %.1f times per run", a)
	}
}

// BenchmarkConvMul times tensor's two implicit-GEMM conv entry points, layer
// by layer, at the 3×3 conv shapes of the zoo vgg16's cut-8 extractor
// (vgg96Chain) and the benchmark's two image sizes: the whole map through
// ConvMulSerialInto, as the unfused engine runs it, and the fused block's own
// row tiles through ConvMulRowsInto — one tile at 32×32, the planner's grid
// at 96×96, halo rows recomputed as the block recomputes them. GFLOP/s is
// over StatsPerLayer's MACs for the layer, so halo work reads as lower
// throughput, not as more work. One more row: the mobilenetv2 / effnetb0
// cut-1 stem (3→8 at 32×32), the smallest wide conv the zoo has. Every row
// prints an /avx512 and an /avx2 variant, from the one process.
func BenchmarkConvMul(b *testing.B) {
	trng := tensor.NewRNG(43)
	model, in := vgg96Chain(trng)
	gflops := func(b *testing.B, macs int64) {
		b.ReportMetric(2*float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
	}
	serial := func(name string, c *Conv2D, g tensor.ConvGeom, macs int64) {
		x, out := tensor.New(g.InC, g.InH, g.InW), tensor.New(c.OutC, g.OutH()*g.OutW())
		trng.FillNormal(x, 0, 1)
		wmat := tensor.FromSlice(c.Weight.W.Data, c.OutC, g.InC*g.KH*g.KW)
		scratch := make([]float32, tensor.ConvGemmScratch(g))
		tensortest.BenchWidths(b, "serial/"+name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				tensor.ConvMulSerialInto(out, wmat, g, x.Data, scratch)
			}
			gflops(b, macs)
		})
	}
	for _, hw := range []int{32, 96} {
		blk := FuseInference(model, in[0], hw, hw).Layers[0].(*FusedBlock)
		stats := model.StatsPerLayer([]int{in[0], hw, hw})
		unit := 0
		for li, l := range model.Layers {
			if _, ok := l.(*Conv2D); !ok {
				continue
			}
			i, u, wmat := unit, &blk.units[unit], blk.wmats[unit]
			unit++
			nOut := u.convH * u.convW
			name := fmt.Sprintf("%dx%d/conv%d_%dto%d", hw, hw, i, u.g.InC, u.conv.OutC)
			serial(name, u.conv, u.g, stats[li].MACs)
			x, out := tensor.New(u.g.InC, u.g.InH, u.g.InW), tensor.New(u.conv.OutC, nOut)
			trng.FillNormal(x, 0, 1)
			scratch := make([]float32, tensor.ConvTileScratch(u.g, u.conv.OutC, u.convH))
			tensortest.BenchWidths(b, fmt.Sprintf("rows/%s/%dtiles", name, blk.nTiles), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					for _, sp := range blk.spans {
						tensor.ConvMulRowsInto(out.Data, nOut, sp[i].convLo*u.convW, wmat, u.g, x.Data, 0, u.g.InH, sp[i].convLo, sp[i].convHi, scratch)
					}
				}
				gflops(b, stats[li].MACs)
			})
		}
	}
	stem := NewConv2D(trng, 3, 8, 3, 1, 1, false)
	serial("32x32/stem_3to8", stem, stem.geom(32, 32), 8*32*32*27)
}
