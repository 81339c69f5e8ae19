package nn

import (
	"fmt"
	"strings"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// Fused extraction blocks.
//
// A cut-CNN feature extractor is a chain of conv → BN → ReLU → maxpool
// stages. Run layer by layer, every stage writes its full feature map and the
// next stage reads it back: on maps larger than the cache that round trip is
// pure DRAM traffic, and on batch-1 serving it dominates the extract stage.
// FuseInference rewrites runs of fusible layers into FusedBlocks that execute
// per output tile instead: for each tile of the block's final output, the
// plan walks the chain backwards to find the input row halo each unit needs,
// runs the row-tiled implicit-GEMM conv (tensor.ConvMulRowsInto) into a
// cache-resident tile buffer, applies bias/BN/activation in place, pools into
// the next tile buffer, and only the block's final output rows are written to
// the activation arena. Inter-layer feature maps never leave the tile
// buffers, which the planner sizes to FuseTileBudgetBytes.
//
// Bit-exactness. The fused pass produces the same float32 bits as the
// layer-by-layer pass:
//   - the row-tiled conv is bit-identical to ConvMulSerialInto (see
//     conv_tile.go), which is bit-identical to the im2col and pointwise
//     inference paths;
//   - bias, BN and activation are elementwise with the exact per-element
//     expressions of Conv2D.ForwardInfer / BatchNorm2D.forwardInferAct /
//     ReLU / ReLU6, so slicing them by tile cannot change any element;
//   - pooling replicates MaxPool2D.ForwardInfer's comparison order
//     (kh-major, kw-minor, strictly-greater), so ties resolve identically.
// Tiles are independent, so serial and parallel execution are bit-equal too.

// FuseTileBudgetBytes bounds the per-execution working set (tile buffers +
// GEMM scratch) of a FusedBlock. The planner caps the tile height at the
// largest whose working set fits (see planTiles); the default keeps a block
// resident in a 2 MiB L2 with room for the packed GEMM panels. Var, not
// const, for tests and tuning.
var FuseTileBudgetBytes = 3 << 19

// FuseMinMACs gates fusion by block size: below it the per-tile bookkeeping
// costs more than the DRAM traffic it saves, so tiny extractors stay on the
// layer-by-layer path (which also remains the testing reference). Var so
// tests can lower it to fuse small fixtures.
var FuseMinMACs int64 = 1 << 21

// fuseTileRowsOverride, when positive, replaces the budget's cap on the tile
// height so tests can run multi-tile schedules on small fixtures.
var fuseTileRowsOverride = 0

// tileGrid cuts a block's outH output rows into tiles no taller than maxRows
// and returns the cut points (tile t is rows [cuts[t], cuts[t+1])). A block
// that fits one tile stays one tile: cutting it costs halo rows and a helper
// wake-up that a batch-1 32×32 request does not earn back (DESIGN.md, "Fused
// extraction blocks"). A block that needs more gets a tile count rounded up
// to a multiple of workers, while every tile still has a row, and heights
// equal to within one row: the tallest tile the budget allows plus its
// remainder is a 75/25 split on two cores.
func tileGrid(outH, maxRows, workers int) []int {
	n := (outH + maxRows - 1) / maxRows
	if even := (n + workers - 1) / workers * workers; n > 1 && even <= outH {
		n = even
	}
	cuts := make([]int, n+1)
	for t := range cuts {
		cuts[t] = t * outH / n
	}
	return cuts
}

// planTiles is the block's tile plan: the tallest cap whose grid has a
// working set within FuseTileBudgetBytes, cut for the pool's workers.
func (b *FusedBlock) planTiles() []int {
	maxRows := b.outH
	if fuseTileRowsOverride > 0 {
		maxRows = min(fuseTileRowsOverride, b.outH)
	} else {
		for maxRows > 1 && b.workingSetBytes(tileGrid(b.outH, maxRows, 1)) > FuseTileBudgetBytes {
			maxRows--
		}
	}
	return tileGrid(b.outH, maxRows, parallel.Workers())
}

// FuseGrid is a fused block's tile schedule, for the operator: tiles per
// sample, the tallest tile's output rows, the widest fan-out of an execution,
// and the conv MACs recomputed in tile halos as a share of the block's MACs.
type FuseGrid struct {
	Tiles, Rows, Parts int
	HaloShare          float64
}

func (g FuseGrid) String() string {
	return fmt.Sprintf("[%d tiles x %d rows, %d parts, halo %.1f%%]", g.Tiles, g.Rows, g.Parts, 100*g.HaloShare)
}

// fusedUnit is one conv-rooted stage of a FusedBlock: a convolution plus the
// optional BN, activation and 2-D max pool that follow it, with its geometry
// bound to the planned input size.
type fusedUnit struct {
	conv *Conv2D
	bn   *BatchNorm2D
	act  fusedAct
	pool *MaxPool2D

	g            tensor.ConvGeom
	convH, convW int // conv output map
	outH, outW   int // after pool (== conv map when pool is nil)
}

// unitSpan is the per-tile row plan for one unit: the unit output rows this
// tile must produce, the conv output rows that requires, and the input row
// window (halo included) the conv reads. A unit's input span is, by
// construction, the previous unit's output span.
type unitSpan struct {
	outLo, outHi   int
	convLo, convHi int
	inLo, inHi     int
}

// FusedBlock executes a run of conv[+bn][+act][+pool] stages (optionally
// ending in a flatten) tile by tile. It implements Layer by delegating to the
// original layers — training passes are untouched — and InferenceLayer with
// the tiled executor. A block is planned for one input size and panics on any
// other.
type FusedBlock struct {
	units   []fusedUnit
	leaves  []Layer // original layers, in order, for Layer passthrough
	flatten bool

	inC, inH, inW    int
	outC, outH, outW int
	sampleIn         int
	sampleOut        int

	nTiles int
	nParts int          // widest fan-out: an execution uses min(nParts, n·nTiles)
	spans  [][]unitSpan // [tile][unit]
	wmats  []*tensor.Tensor

	convSize      []int // per unit, floats in the conv-output tile buffer
	outSize       []int // per unit, floats in the pooled-output tile buffer
	scratchFloats int

	// Reusable executors, capped like the engine's arenas: waiting for one is
	// deadlock-free because concurrent ForwardInfer executions are bounded by
	// the same Workers() cap that bounds the arenas they run on.
	runs *parallel.Freelist[*fuseRun]
}

// fusePart is one partition's tile buffers; slice headers are rebound from
// the caller's arena on every execution, so a frozen arena keeps the fused
// path heap-allocation-free.
type fusePart struct {
	conv    [][]float32 // per unit: conv output rows (nil when conv writes y)
	out     [][]float32 // per unit: unit output rows (aliases conv when no pool)
	scratch []float32
}

// fuseRun is one reusable executor: a prebound parallel fan-out over up to
// nParts partitions of the (sample, tile) item grid, plus the per-partition
// buffer sets. Building it once at compile time keeps Run on the serving path
// allocation-free.
type fuseRun struct {
	b     *FusedBlock
	call  *parallel.Call
	parts []fusePart
	x, y  []float32
	n, np int // samples and partitions of the current execution
}

// FuseInference returns s with every fusible run of inference layers replaced
// by a FusedBlock planned for per-sample input [c, h, w]. Layers are shared,
// never copied; if nothing fuses, s itself is returned. A run is fused when
// it reaches FuseMinMACs and has more than one unit (or a pool) — single
// pool-less convs gain nothing from tiling. Runs that stay unfused keep their
// original layers.
func FuseInference(s *Sequential, c, h, w int) *Sequential {
	leaves := flattenLayers(s)
	shape := []int{c, h, w}
	out := make([]Layer, 0, len(leaves))
	changed := false
	for i := 0; i < len(leaves); {
		conv, ok := leaves[i].(*Conv2D)
		if !ok || len(shape) != 3 || conv.InC != shape[0] {
			shape = leaves[i].OutShape(shape)
			out = append(out, leaves[i])
			i++
			continue
		}
		units, runLeaves, flatten, next, outShape := scanFuseRun(leaves, i, shape)
		if len(units) == 0 { // geometry invalid for this input: leave as is
			shape = leaves[i].OutShape(shape)
			out = append(out, leaves[i])
			i++
			continue
		}
		if shouldFuse(units) {
			out = append(out, newFusedBlock(units, runLeaves, shape[0], shape[1], shape[2], flatten))
			changed = true
		} else {
			out = append(out, runLeaves...)
		}
		shape = outShape
		i = next
	}
	if !changed {
		return s
	}
	return &Sequential{Label: s.Label, Layers: out}
}

// flattenLayers unwraps nested Sequentials into a flat leaf list. Other
// containers (Residual, SEBlock) are leaves: their internal structure is not
// a linear chain.
func flattenLayers(l Layer) []Layer {
	s, ok := l.(*Sequential)
	if !ok {
		return []Layer{l}
	}
	var out []Layer
	for _, sub := range s.Layers {
		out = append(out, flattenLayers(sub)...)
	}
	return out
}

// scanFuseRun greedily scans a maximal fusible run starting at ls[i] (a
// Conv2D): repeated conv[+bn][+act][+pool] units, then an optional trailing
// Flatten. It returns the parsed units, the consumed leaves, whether a
// flatten was absorbed, the index after the run, and the per-sample output
// shape.
func scanFuseRun(ls []Layer, i int, shape []int) (units []fusedUnit, leaves []Layer, flatten bool, next int, outShape []int) {
	c, h, w := shape[0], shape[1], shape[2]
	j := i
	for j < len(ls) {
		conv, ok := ls[j].(*Conv2D)
		if !ok || conv.InC != c {
			break
		}
		g := conv.geom(h, w)
		if g.Validate() != nil {
			break
		}
		u := fusedUnit{conv: conv, g: g, convH: g.OutH(), convW: g.OutW()}
		leaves = append(leaves, conv)
		j++
		if j < len(ls) {
			if bn, ok := ls[j].(*BatchNorm2D); ok && bn.C == conv.OutC {
				u.bn = bn
				leaves = append(leaves, bn)
				j++
			}
		}
		if j < len(ls) {
			switch ls[j].(type) {
			case *ReLU:
				u.act = actReLU
				leaves = append(leaves, ls[j])
				j++
			case *ReLU6:
				u.act = actReLU6
				leaves = append(leaves, ls[j])
				j++
			}
		}
		u.outH, u.outW = u.convH, u.convW
		if j < len(ls) {
			if mp, ok := ls[j].(*MaxPool2D); ok && u.convH/mp.K > 0 && u.convW/mp.K > 0 {
				u.pool = mp
				u.outH, u.outW = u.convH/mp.K, u.convW/mp.K
				leaves = append(leaves, mp)
				j++
			}
		}
		units = append(units, u)
		c, h, w = conv.OutC, u.outH, u.outW
	}
	outShape = []int{c, h, w}
	if len(units) > 0 && j < len(ls) {
		if fl, ok := ls[j].(*Flatten); ok {
			flatten = true
			leaves = append(leaves, fl)
			j++
			outShape = []int{c * h * w}
		}
	}
	return units, leaves, flatten, j, outShape
}

// shouldFuse applies the size gate (see FuseMinMACs).
func shouldFuse(units []fusedUnit) bool {
	var macs int64
	pooled := false
	for _, u := range units {
		macs += int64(u.conv.OutC) * int64(u.convH*u.convW) * int64(u.conv.InC*u.conv.KH*u.conv.KW)
		if u.pool != nil {
			pooled = true
		}
	}
	if len(units) < 2 && !pooled {
		return false
	}
	return macs >= FuseMinMACs
}

// newFusedBlock plans the tile schedule and buffer sizes for a parsed run.
func newFusedBlock(units []fusedUnit, leaves []Layer, inC, inH, inW int, flatten bool) *FusedBlock {
	last := units[len(units)-1]
	b := &FusedBlock{
		units: units, leaves: leaves, flatten: flatten,
		inC: inC, inH: inH, inW: inW,
		outC: last.conv.OutC, outH: last.outH, outW: last.outW,
	}
	b.sampleIn = inC * inH * inW
	b.sampleOut = b.outC * b.outH * b.outW
	b.wmats = make([]*tensor.Tensor, len(units))
	for i, u := range units {
		kdim := u.conv.InC * u.conv.KH * u.conv.KW
		b.wmats[i] = tensor.FromSlice(u.conv.Weight.W.Data, u.conv.OutC, kdim)
	}
	b.convSize, b.outSize, b.scratchFloats, b.spans = b.sizesForTiles(b.planTiles())
	b.nTiles = len(b.spans)
	b.nParts = parallel.Workers()
	b.runs = parallel.NewFreelist(parallel.Workers(), b.newRun)
	return b
}

// Grid reads the planned tile schedule off the spans.
func (b *FusedBlock) Grid() FuseGrid {
	g := FuseGrid{Tiles: len(b.spans), Parts: b.nParts}
	var done, need int64
	for i, u := range b.units {
		rowMACs := int64(u.conv.OutC*u.convW) * int64(u.conv.InC*u.conv.KH*u.conv.KW)
		for _, sp := range b.spans {
			done += int64(sp[i].convHi-sp[i].convLo) * rowMACs
		}
		need += int64(u.convH) * rowMACs
	}
	for _, sp := range b.spans {
		last := sp[len(sp)-1]
		g.Rows = max(g.Rows, last.outHi-last.outLo)
	}
	g.HaloShare = float64(done-need) / float64(need)
	return g
}

// sizesForTiles plans every tile of a grid (see tileGrid) and returns the
// per-unit buffer sizes and the conv scratch (max over tiles and units; it
// grows with the tile where a conv keeps its padded input window there) plus
// the per-tile spans. The last unit's final stage writes the output tensor
// directly, so it gets a conv buffer only when a pool sits between the conv
// and the output, and never an out buffer.
func (b *FusedBlock) sizesForTiles(cuts []int) (convSize, outSize []int, scratch int, spans [][]unitSpan) {
	n := len(cuts) - 1
	convSize = make([]int, len(b.units))
	outSize = make([]int, len(b.units))
	spans = make([][]unitSpan, n)
	for t := 0; t < n; t++ {
		sp := b.planUnitSpans(cuts[t], cuts[t+1])
		spans[t] = sp
		for i := range b.units {
			u := &b.units[i]
			scratch = max(scratch, tensor.ConvTileScratch(u.g, u.conv.OutC, sp[i].convHi-sp[i].convLo))
			last := i == len(b.units)-1
			if !last || u.pool != nil {
				if sz := u.conv.OutC * (sp[i].convHi - sp[i].convLo) * u.convW; sz > convSize[i] {
					convSize[i] = sz
				}
			}
			if !last && u.pool != nil {
				if sz := u.conv.OutC * (sp[i].outHi - sp[i].outLo) * u.outW; sz > outSize[i] {
					outSize[i] = sz
				}
			}
		}
	}
	return convSize, outSize, scratch, spans
}

// workingSetBytes estimates one partition's resident bytes on a tile grid.
func (b *FusedBlock) workingSetBytes(cuts []int) int {
	convSize, outSize, floats, _ := b.sizesForTiles(cuts)
	for i := range convSize {
		floats += convSize[i] + outSize[i]
	}
	return 4 * floats
}

// planUnitSpans walks the chain backwards from block output rows
// [outLo, outHi): a pool needs its conv rows [lo·K, hi·K); a conv's output
// rows [c0, c1) read input rows [c0·S−Pad, (c1−1)·S−Pad+KH) clamped to the
// input (the low bound can exceed InH when the padding overhangs the
// kernel); the previous unit must produce exactly that window.
func (b *FusedBlock) planUnitSpans(outLo, outHi int) []unitSpan {
	sp := make([]unitSpan, len(b.units))
	lo, hi := outLo, outHi
	for i := len(b.units) - 1; i >= 0; i-- {
		u := &b.units[i]
		s := unitSpan{outLo: lo, outHi: hi, convLo: lo, convHi: hi}
		if u.pool != nil {
			s.convLo, s.convHi = lo*u.pool.K, hi*u.pool.K
		}
		if s.convHi > s.convLo {
			s.inLo = min(max(0, s.convLo*u.g.StrideH-u.g.PadH), u.g.InH)
			s.inHi = min(u.g.InH, (s.convHi-1)*u.g.StrideH-u.g.PadH+u.g.KH)
			s.inHi = max(s.inHi, s.inLo)
		}
		sp[i] = s
		lo, hi = s.inLo, s.inHi
	}
	return sp
}

// Name implements Layer.
func (b *FusedBlock) Name() string {
	var sb strings.Builder
	sb.WriteString("fused{")
	for i := range b.units {
		u := &b.units[i]
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(u.conv.Name())
		if u.bn != nil {
			sb.WriteString("+bn")
		}
		switch u.act {
		case actReLU:
			sb.WriteString("+relu")
		case actReLU6:
			sb.WriteString("+relu6")
		}
		if u.pool != nil {
			fmt.Fprintf(&sb, "+pool%d", u.pool.K)
		}
	}
	if b.flatten {
		sb.WriteString(" flatten")
	}
	sb.WriteByte('}')
	return sb.String()
}

// Forward implements Layer by running the original layers; training is
// untouched by fusion.
func (b *FusedBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range b.leaves {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer. The fused executor is inference-only; training
// graphs are built from the unfused model, so this is never reached.
func (b *FusedBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	panic("nn: FusedBlock is inference-only; train the unfused model")
}

// Params implements Layer.
func (b *FusedBlock) Params() []*Param {
	var ps []*Param
	for _, l := range b.leaves {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (b *FusedBlock) OutShape(in []int) []int {
	for _, l := range b.leaves {
		in = l.OutShape(in)
	}
	return in
}

// Stats implements Layer.
func (b *FusedBlock) Stats(in []int) Stats {
	var total Stats
	for _, l := range b.leaves {
		total.Add(l.Stats(in))
		in = l.OutShape(in)
	}
	return total
}

// newRun builds an executor: per-partition buffer tables (headers only — the
// backing arrays are arena-bound per call) and the parallel fan-out with its
// kernel prebound, so Run never allocates.
func (b *FusedBlock) newRun() *fuseRun {
	r := &fuseRun{b: b, parts: make([]fusePart, b.nParts)}
	for i := range r.parts {
		r.parts[i].conv = make([][]float32, len(b.units))
		r.parts[i].out = make([][]float32, len(b.units))
	}
	r.call = parallel.NewCall(b.nParts, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			r.runPart(p)
		}
	})
	return r
}

// ForwardInfer implements InferenceLayer: the tiled executor. Output goes to
// the arena; tile buffers are arena scratch released before returning.
func (b *FusedBlock) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := batchOf(x, "FusedBlock")
	if x.Rank() != 4 || x.Shape[1] != b.inC || x.Shape[2] != b.inH || x.Shape[3] != b.inW {
		panic(fmt.Sprintf("nn: FusedBlock planned for [N %d %d %d], got %v",
			b.inC, b.inH, b.inW, x.Shape))
	}
	var y *tensor.Tensor
	if b.flatten {
		y = ar.Alloc(n, b.sampleOut)
	} else {
		y = ar.Alloc(n, b.outC, b.outH, b.outW)
	}
	if n == 0 {
		return y
	}
	m := ar.Mark()
	r := b.runs.Get()
	// One partition per worker while there are (sample, tile) items to go
	// round. Their buffers are bound serially before dispatch, so the arena's
	// high-water mark depends on n alone and the engine's chunk-sized warmup
	// sees the largest.
	r.np = min(b.nParts, n*b.nTiles)
	for pi := range r.parts[:r.np] {
		pt := &r.parts[pi]
		for i := range b.units {
			if b.convSize[i] > 0 {
				pt.conv[i] = ar.Floats(b.convSize[i])
			}
			if b.outSize[i] > 0 {
				pt.out[i] = ar.Floats(b.outSize[i])
			} else {
				pt.out[i] = pt.conv[i] // pool-less unit: conv buffer is the output
			}
		}
		pt.scratch = ar.Floats(b.scratchFloats)
	}
	r.x, r.y, r.n = x.Data, y.Data, n
	r.call.RunN(r.np)
	r.x, r.y = nil, nil
	b.runs.Put(r)
	ar.Release(m)
	return y
}

// runPart executes partition p's contiguous share of the (sample, tile) grid.
// Items are independent and each partition owns its buffers, so any
// partitioning — including the single-worker serial one — yields identical
// bits.
func (r *fuseRun) runPart(p int) {
	b := r.b
	items := r.n * b.nTiles
	lo, hi := p*items/r.np, (p+1)*items/r.np
	pt := &r.parts[p]
	for it := lo; it < hi; it++ {
		r.runTile(pt, it/b.nTiles, it%b.nTiles)
	}
}

// runTile produces block output rows spans[t] of sample s.
func (r *fuseRun) runTile(pt *fusePart, s, t int) {
	b := r.b
	spans := b.spans[t]
	xs := r.x[s*b.sampleIn : (s+1)*b.sampleIn]
	ys := r.y[s*b.sampleOut : (s+1)*b.sampleOut]
	for i := range b.units {
		u := &b.units[i]
		sp := &spans[i]
		convRows := sp.convHi - sp.convLo
		if convRows <= 0 {
			continue
		}
		// Input window: the block input is read in place (only the halo rows
		// are touched); inner units read the previous unit's tile buffer,
		// which holds exactly rows [inLo, inHi).
		src, row0, rows := xs, 0, b.inH
		if i > 0 {
			src, row0, rows = pt.out[i-1], sp.inLo, sp.inHi-sp.inLo
		}
		// Conv destination: the tile buffer, or the output tensor directly
		// when this is the block's final stage.
		last := i == len(b.units)-1
		dst, ldd, dstOff := pt.conv[i], convRows*u.convW, 0
		if last && u.pool == nil {
			dst, ldd, dstOff = ys, u.convH*u.convW, sp.convLo*u.convW
		}
		tensor.ConvMulRowsInto(dst, ldd, dstOff, b.wmats[i], u.g, src, row0, rows, sp.convLo, sp.convHi, pt.scratch)
		fuseEpilogue(u, dst, ldd, dstOff, convRows)
		if u.pool != nil {
			pdst, pldd, pOff := pt.out[i], (sp.outHi-sp.outLo)*u.outW, 0
			if last {
				pdst, pldd, pOff = ys, b.outH*b.outW, sp.outLo*b.outW
			}
			fusePool(u, sp, dst, ldd, dstOff, pdst, pldd, pOff)
		}
	}
}

// fuseEpilogue applies the unit's bias, BN and activation in place over the
// conv output rows, channel by channel, with the exact per-element arithmetic
// of the unfused layers (Conv2D bias add, then bnActInPlace).
func fuseEpilogue(u *fusedUnit, dst []float32, ldd, dstOff, convRows int) {
	w := convRows * u.convW
	for oc := 0; oc < u.conv.OutC; oc++ {
		seg := dst[oc*ldd+dstOff : oc*ldd+dstOff+w]
		if u.conv.useBias && u.bn == nil && u.act == actReLU {
			// The common bias→ReLU epilogue (every VGG conv) in one sweep:
			// per element the identical add-then-clamp the two passes below
			// would do, but the tile is only walked once.
			tensor.AddScalarReLUInPlace(seg, u.conv.Bias.W.Data[oc])
			continue
		}
		if u.conv.useBias {
			bv := u.conv.Bias.W.Data[oc]
			for j := range seg {
				seg[j] += bv
			}
		}
		bnActInPlace(seg, u.bn, oc, u.act)
	}
}

// fusePool max-pools conv rows [convLo, convHi) (held in src starting at
// buffer row 0) into unit output rows [outLo, outHi), replicating
// MaxPool2D.ForwardInfer: the 2×2 window through the same row kernel, the
// general window with first-wins strictly-greater comparisons — both visit
// taps kh-major, kw-minor, so results are bit-identical.
func fusePool(u *fusedUnit, sp *unitSpan, src []float32, lds, srcOff int, dst []float32, ldd, dstOff int) {
	k, w, ow := u.pool.K, u.convW, u.outW
	for oc := 0; oc < u.conv.OutC; oc++ {
		inBase := oc*lds + srcOff - sp.convLo*w
		outBase := oc*ldd + dstOff - sp.outLo*ow
		if k == 2 {
			for oh := sp.outLo; oh < sp.outHi; oh++ {
				tensor.MaxPool2x2Row(dst[outBase+oh*ow:outBase+oh*ow+ow], src[inBase+2*oh*w:], src[inBase+(2*oh+1)*w:])
			}
			continue
		}
		for oh := sp.outLo; oh < sp.outHi; oh++ {
			for j := 0; j < ow; j++ {
				best := float32(0)
				bestAt := -1
				for kh := 0; kh < k; kh++ {
					row := inBase + (oh*k+kh)*w
					for kw := 0; kw < k; kw++ {
						if v := src[row+j*k+kw]; bestAt < 0 || v > best {
							best, bestAt = v, row+j*k+kw
						}
					}
				}
				dst[outBase+oh*ow+j] = best
			}
		}
	}
}
