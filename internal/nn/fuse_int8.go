package nn

import (
	"fmt"
	"strings"

	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// Int8 fused extraction blocks: the quantized counterpart of FusedBlock. The
// int8 chain is simpler — batch norm and activations are already folded into
// each Int8Conv2D's requantization clamp — so a unit is a conv plus an
// optional max pool, and the whole pipeline (u8 im2col → int32 GEMM →
// requantize → u8 pool) runs per output tile through cache-resident buffers.
// Everything downstream of the im2col is exact integer arithmetic and the
// windowed generator emits exactly the Im2ColU8 columns of its rows
// (TestIm2ColU8RowsMatchesFull), so any tiling is trivially bit-exact.

// int8FusedUnit is one conv[+pool] stage with geometry bound at plan time.
type int8FusedUnit struct {
	conv *Int8Conv2D
	pool *Int8MaxPool2D

	g            tensor.ConvGeom
	convH, convW int
	outH, outW   int
}

// Int8FusedBlock executes a run of Int8Conv2D[+Int8MaxPool2D] stages
// (optionally ending in a flatten) tile by tile. It implements Int8Layer and
// is planned for one input size.
type Int8FusedBlock struct {
	units   []int8FusedUnit
	flatten bool

	inC, inH, inW    int
	outC, outH, outW int
	sampleIn         int
	sampleOut        int

	nTiles int
	nParts int // widest fan-out (see FusedBlock)
	spans  [][]unitSpan

	convSize  []int // per unit, u8 elements in the conv-output tile buffer
	outSize   []int // per unit, u8 elements in the pooled-output tile buffer
	colsBytes int
	accInts   int

	runs *parallel.Freelist[*int8FuseRun]
}

// int8FusePart is one partition's buffers, arena-bound per call.
type int8FusePart struct {
	conv    [][]uint8
	out     [][]uint8
	cols    []uint8
	acc     []int32
	scratch []uint8
}

// int8FuseRun is one reusable executor (see fuseRun).
type int8FuseRun struct {
	b     *Int8FusedBlock
	call  *parallel.Call
	parts []int8FusePart
	x, y  []uint8
	n, np int
}

// FuseInt8 returns ls with every fusible run of int8 layers replaced by an
// Int8FusedBlock planned for per-sample input [c, h, w]. If nothing fuses,
// ls itself is returned. The gate matches FuseInference: FuseMinMACs with
// more than one unit or a pool. A conv whose input
// quantization does not chain from the previous unit's output ends the run —
// that wiring needs the per-layer runtime check.
func FuseInt8(ls []Int8Layer, c, h, w int) []Int8Layer {
	shape := []int{c, h, w}
	out := make([]Int8Layer, 0, len(ls))
	changed := false
	for i := 0; i < len(ls); {
		conv, ok := ls[i].(*Int8Conv2D)
		if !ok || len(shape) != 3 || conv.InC != shape[0] {
			shape = int8OutShape(ls[i], shape)
			out = append(out, ls[i])
			i++
			continue
		}
		units, nLeaves, flatten, next, outShape := scanInt8FuseRun(ls, i, shape)
		if len(units) == 0 {
			shape = int8OutShape(ls[i], shape)
			out = append(out, ls[i])
			i++
			continue
		}
		if shouldFuseInt8(units) {
			out = append(out, newInt8FusedBlock(units, shape[0], shape[1], shape[2], flatten))
			changed = true
		} else {
			out = append(out, ls[i:i+nLeaves]...)
		}
		shape = outShape
		i = next
	}
	if !changed {
		return ls
	}
	return out
}

// int8OutShape tracks the per-sample shape through known int8 layers; nil
// means the shape is no longer a [C, H, W] map (or the layer is unknown).
func int8OutShape(l Int8Layer, shape []int) []int {
	if len(shape) != 3 {
		return nil
	}
	switch v := l.(type) {
	case *Int8Conv2D:
		g := tensor.ConvGeom{InC: v.InC, InH: shape[1], InW: shape[2], KH: v.KH, KW: v.KW,
			StrideH: v.Stride, StrideW: v.Stride, PadH: v.Pad, PadW: v.Pad}
		if v.InC != shape[0] || g.Validate() != nil {
			return nil
		}
		return []int{v.OutC, g.OutH(), g.OutW()}
	case *Int8MaxPool2D:
		return []int{shape[0], shape[1] / v.K, shape[2] / v.K}
	case *Int8FusedBlock:
		if v.inC != shape[0] || v.inH != shape[1] || v.inW != shape[2] {
			return nil
		}
		if v.flatten {
			return []int{v.sampleOut}
		}
		return []int{v.outC, v.outH, v.outW}
	default:
		return nil
	}
}

// Int8ChainShape tracks a per-sample [C, H, W] shape through a chain of int8
// layers, returning nil as soon as the shape leaves rank-3 or a layer's shape
// function is unknown. The engine's fusion pass uses it to locate fusible
// segments inside a quantized stage.
func Int8ChainShape(ls []Int8Layer, shape []int) []int {
	for _, l := range ls {
		if len(shape) != 3 {
			return nil
		}
		shape = int8OutShape(l, shape)
		if shape == nil {
			return nil
		}
	}
	return shape
}

// WeightBytes reports the block's resident quantized weights: i8 weight
// bytes plus the int32 bias and float32 requant scale per output channel of
// each fused conv — exactly what the absorbed layers reported unfused.
func (b *Int8FusedBlock) WeightBytes() int64 {
	var total int64
	for i := range b.units {
		c := b.units[i].conv
		total += int64(len(c.W)) + int64(len(c.Bias32))*4 + int64(len(c.Scales))*4
	}
	return total
}

// scanInt8FuseRun greedily scans a maximal fusible run starting at ls[i] (an
// Int8Conv2D): repeated conv[+pool] units with chained quantization, then an
// optional trailing Int8Flatten. nLeaves is the number of consumed layers.
func scanInt8FuseRun(ls []Int8Layer, i int, shape []int) (units []int8FusedUnit, nLeaves int, flatten bool, next int, outShape []int) {
	c, h, w := shape[0], shape[1], shape[2]
	j := i
	for j < len(ls) {
		conv, ok := ls[j].(*Int8Conv2D)
		if !ok || conv.InC != c {
			break
		}
		if len(units) > 0 {
			prev := units[len(units)-1].conv.Q
			if conv.Q.InScale != prev.OutScale || conv.Q.InZero != prev.OutZero {
				break
			}
		}
		g := tensor.ConvGeom{InC: conv.InC, InH: h, InW: w, KH: conv.KH, KW: conv.KW,
			StrideH: conv.Stride, StrideW: conv.Stride, PadH: conv.Pad, PadW: conv.Pad}
		if g.Validate() != nil {
			break
		}
		u := int8FusedUnit{conv: conv, g: g, convH: g.OutH(), convW: g.OutW()}
		j++
		u.outH, u.outW = u.convH, u.convW
		if j < len(ls) {
			if mp, ok := ls[j].(*Int8MaxPool2D); ok && u.convH/mp.K > 0 && u.convW/mp.K > 0 {
				u.pool = mp
				u.outH, u.outW = u.convH/mp.K, u.convW/mp.K
				j++
			}
		}
		units = append(units, u)
		c, h, w = conv.OutC, u.outH, u.outW
	}
	outShape = []int{c, h, w}
	if len(units) > 0 && j < len(ls) {
		if _, ok := ls[j].(Int8Flatten); ok {
			flatten = true
			j++
			outShape = []int{c * h * w}
		}
	}
	return units, j - i, flatten, j, outShape
}

// shouldFuseInt8 applies the same size gate as shouldFuse.
func shouldFuseInt8(units []int8FusedUnit) bool {
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

// newInt8FusedBlock plans the tile schedule and buffer sizes.
func newInt8FusedBlock(units []int8FusedUnit, inC, inH, inW int, flatten bool) *Int8FusedBlock {
	last := units[len(units)-1]
	b := &Int8FusedBlock{
		units: units, flatten: flatten,
		inC: inC, inH: inH, inW: inW,
		outC: last.conv.OutC, outH: last.outH, outW: last.outW,
	}
	b.sampleIn = inC * inH * inW
	b.sampleOut = b.outC * b.outH * b.outW
	b.convSize, b.outSize, b.colsBytes, b.accInts, b.spans = b.sizesForTiles(planTiles(b.outH, b.workingSetBytes))
	b.nTiles = len(b.spans)
	b.nParts = parallel.Workers()
	b.runs = parallel.NewFreelist(parallel.Workers(), b.newRun)
	return b
}

// Grid reports the planned tile schedule.
func (b *Int8FusedBlock) Grid() FuseGrid {
	rowMACs, convH := make([]int64, len(b.units)), make([]int, len(b.units))
	for i, u := range b.units {
		rowMACs[i], convH[i] = int64(u.conv.OutC*u.convW)*int64(u.conv.InC*u.conv.KH*u.conv.KW), u.convH
	}
	return newFuseGrid(b.spans, b.nParts, rowMACs, convH)
}

// sizesForTiles plans every tile of a grid; buffer sizes are maxima over
// tiles and units (the cols and acc buffers are shared across units).
func (b *Int8FusedBlock) sizesForTiles(cuts []int) (convSize, outSize []int, colsBytes, accInts int, spans [][]unitSpan) {
	n := len(cuts) - 1
	convSize = make([]int, len(b.units))
	outSize = make([]int, len(b.units))
	spans = make([][]unitSpan, n)
	gs := make([]spanGeom, len(b.units))
	for i := range b.units {
		gs[i] = spanGeom{g: b.units[i].g}
		if b.units[i].pool != nil {
			gs[i].poolK = b.units[i].pool.K
		}
	}
	for t := 0; t < n; t++ {
		sp := planUnitSpans(gs, cuts[t], cuts[t+1])
		spans[t] = sp
		for i := range b.units {
			u := &b.units[i]
			width := (sp[i].convHi - sp[i].convLo) * u.convW
			if c := u.conv.kp * width; c > colsBytes {
				colsBytes = c
			}
			if a := u.conv.OutC * width; a > accInts {
				accInts = a
			}
			last := i == len(b.units)-1
			if !last || u.pool != nil {
				if sz := u.conv.OutC * width; sz > convSize[i] {
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
	return convSize, outSize, colsBytes, accInts, spans
}

// workingSetBytes estimates one partition's resident bytes on a tile grid.
func (b *Int8FusedBlock) workingSetBytes(cuts []int) int {
	convSize, outSize, colsBytes, accInts, _ := b.sizesForTiles(cuts)
	bytes := colsBytes + 4*accInts + tensor.Int8GemmScratch()
	for i := range convSize {
		bytes += convSize[i] + outSize[i]
	}
	return bytes
}

func (b *Int8FusedBlock) String() string {
	var sb strings.Builder
	sb.WriteString("Int8Fused{")
	for i := range b.units {
		u := &b.units[i]
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(u.conv.String())
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

func (b *Int8FusedBlock) newRun() *int8FuseRun {
	r := &int8FuseRun{b: b, parts: make([]int8FusePart, b.nParts)}
	for i := range r.parts {
		r.parts[i].conv = make([][]uint8, len(b.units))
		r.parts[i].out = make([][]uint8, len(b.units))
	}
	r.call = parallel.NewCall(b.nParts, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			r.runPart(p)
		}
	})
	return r
}

// ForwardInt8 implements Int8Layer: the tiled executor.
func (b *Int8FusedBlock) ForwardInt8(x *tensor.QTensor, ar *tensor.Arena) *tensor.QTensor {
	if x.Rank() != 4 || x.Shape[1] != b.inC || x.Shape[2] != b.inH || x.Shape[3] != b.inW {
		panic(fmt.Sprintf("nn: Int8FusedBlock planned for [N %d %d %d], got %v",
			b.inC, b.inH, b.inW, x.Shape))
	}
	checkInt8Input("Int8FusedBlock", x, b.units[0].conv.Q)
	n := x.Shape[0]
	q := b.units[len(b.units)-1].conv.Q
	var y *tensor.QTensor
	if b.flatten {
		y = ar.AllocU8(q.OutScale, q.OutZero, n, b.sampleOut)
	} else {
		y = ar.AllocU8(q.OutScale, q.OutZero, n, b.outC, b.outH, b.outW)
	}
	if n == 0 {
		return y
	}
	m := ar.Mark()
	r := b.runs.Get()
	r.np = min(b.nParts, n*b.nTiles)
	for pi := range r.parts[:r.np] {
		pt := &r.parts[pi]
		for i := range b.units {
			if b.convSize[i] > 0 {
				pt.conv[i] = ar.Bytes(b.convSize[i])
			}
			if b.outSize[i] > 0 {
				pt.out[i] = ar.Bytes(b.outSize[i])
			} else {
				pt.out[i] = pt.conv[i]
			}
		}
		pt.cols = ar.Bytes(b.colsBytes)
		pt.acc = ar.Int32s(b.accInts)
		pt.scratch = ar.Bytes(tensor.Int8GemmScratch())
	}
	r.x, r.y, r.n = x.Data, y.Data, n
	r.call.RunN(r.np)
	r.x, r.y = nil, nil
	b.runs.Put(r)
	ar.Release(m)
	return y
}

func (r *int8FuseRun) runPart(p int) {
	b := r.b
	items := r.n * b.nTiles
	lo, hi := p*items/r.np, (p+1)*items/r.np
	pt := &r.parts[p]
	for it := lo; it < hi; it++ {
		r.runTile(pt, it/b.nTiles, it%b.nTiles)
	}
}

// runTile produces block output rows spans[t] of sample s: per unit, the
// windowed u8 im2col, the exact int32 GEMM, per-channel requantization (with
// the folded clamp activation), and the u8 max pool.
func (r *int8FuseRun) runTile(pt *int8FusePart, s, t int) {
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
		src, row0, rows := xs, 0, b.inH
		if i > 0 {
			src, row0, rows = pt.out[i-1], sp.inLo, sp.inHi-sp.inLo
		}
		width := convRows * u.convW
		kdim := u.conv.InC * u.conv.KH * u.conv.KW
		cols := pt.cols[:u.conv.kp*width]
		tensor.Im2ColU8Rows(u.g, src, row0, rows, cols[:kdim*width], sp.convLo, sp.convHi, u.conv.Q.InZero)
		if u.conv.kp > kdim {
			// K-padding rows: zero weights make them inert, but the GEMM
			// reads them, so they must be defined.
			clear(cols[kdim*width:])
		}
		acc := pt.acc[:u.conv.OutC*width]
		tensor.MatMulInt8SerialInto(acc, u.conv.wp, cols, u.conv.OutC, width, u.conv.kp, pt.scratch)
		last := i == len(b.units)-1
		dst, ldd, dstOff := pt.conv[i], width, 0
		if last && u.pool == nil {
			dst, ldd, dstOff = ys, u.convH*u.convW, sp.convLo*u.convW
		}
		for oc := 0; oc < u.conv.OutC; oc++ {
			tensor.RequantizeU8Row(dst[oc*ldd+dstOff:oc*ldd+dstOff+width], acc[oc*width:(oc+1)*width],
				u.conv.Bias32[oc], u.conv.Scales[oc], u.conv.Q.OutZero, u.conv.Q.ClampLo, u.conv.Q.ClampHi)
		}
		if u.pool != nil {
			pdst, pldd, pOff := pt.out[i], (sp.outHi-sp.outLo)*u.outW, 0
			if last {
				pdst, pldd, pOff = ys, b.outH*b.outW, sp.outLo*b.outW
			}
			int8FusePool(u, sp, dst, ldd, dstOff, pdst, pldd, pOff)
		}
	}
}

// int8FusePool max-pools conv rows [convLo, convHi) into unit output rows
// [outLo, outHi), replicating Int8MaxPool2D.ForwardInt8's comparison order
// (kh|kw == 0 seeds, then strictly-greater) exactly.
func int8FusePool(u *int8FusedUnit, sp *unitSpan, src []uint8, lds, srcOff int, dst []uint8, ldd, dstOff int) {
	k, w, ow := u.pool.K, u.convW, u.outW
	for oc := 0; oc < u.conv.OutC; oc++ {
		inBase := oc*lds + srcOff - sp.convLo*w
		outBase := oc*ldd + dstOff - sp.outLo*ow
		for oh := sp.outLo; oh < sp.outHi; oh++ {
			for j := 0; j < ow; j++ {
				var best uint8
				for kh := 0; kh < k; kh++ {
					rowAt := inBase + (oh*k+kh)*w + j*k
					for kw := 0; kw < k; kw++ {
						if v := src[rowAt+kw]; kh|kw == 0 || v > best {
							best = v
						}
					}
				}
				dst[outBase+oh*ow+j] = best
			}
		}
	}
}
