package tensor

import "math"

// This file holds the branch-free elementwise and depthwise kernels of the
// conv → BatchNorm → ReLU6 → depthwise serving path. Each is an AVX2 routine
// (elem_amd64.s, behind useGemmAsm) over the 8-wide bulk plus a Go twin that
// runs the remainder and every other target. The twin is also the oracle:
// both apply the scalar layers' comparisons (`v < 0`, `v <= 0`, `v >= 6`) as
// selects on the value's bits and their arithmetic as separately rounded
// multiplies and adds, so every output bit — NaN payloads, -0, ±Inf — equals
// what the training-side Forward computes. Products are written float32(a*b)
// so no build (GOAMD64=v3, arm64) may fuse them into the following add.

// Act selects the activation AffineActInPlace applies after the affine.
type Act int

const (
	ActNone Act = iota
	ActReLU
	ActReLU6
)

const (
	oneBits    = 0x3F800000 // +1
	negOneBits = 0xBF800000 // -1
	sixBits    = 0x40C00000 // 6
)

// SignInPlace quantizes x to the bipolar convention: v < 0 → -1, everything
// else — +0, -0, NaN — → +1. The test is the comparison, not the sign bit.
func SignInPlace(x []float32) {
	i := 0
	if useGemmAsm {
		if i = len(x) / 8 * 8; i > 0 {
			signAsm(i, &x[0])
		}
	}
	signGo(x[i:])
}

func signGo(x []float32) {
	for i, v := range x {
		b := uint32(oneBits)
		if v < 0 {
			b = negOneBits
		}
		x[i] = math.Float32frombits(b)
	}
}

// ClampReLU6InPlace clamps x to [0, 6] with exactly the comparisons of
// `if v <= 0 { v = 0 } else if v >= 6 { v = 6 }`: -0 becomes +0, NaN passes
// through with its payload.
func ClampReLU6InPlace(x []float32) {
	i := 0
	if useGemmAsm {
		if i = len(x) / 8 * 8; i > 0 {
			clampReLU6Asm(i, &x[0])
		}
	}
	clampReLU6Go(x[i:])
}

// ReLUBackInto writes ReLU's input gradient read off its output: dx[i] = g[i]
// where y[i] > 0, +0 everywhere else — a NaN y included, since NaN > 0 is
// false. g's bits pass as they are, NaN payloads and −0 too. The 512-bit
// kernel takes sixteen floats a step, the AVX2 one eight, the Go twin the
// rest, all with the same comparison. dx, g and y have len(dx) elements.
func ReLUBackInto(dx, g, y []float32) {
	n := len(dx)
	g, y = g[:n], y[:n]
	i := 0
	if useGemm512 {
		if i = n / 16 * 16; i > 0 {
			reluBack512Asm(i, &dx[0], &g[0], &y[0])
		}
	}
	if useGemmAsm {
		if w := (n - i) / 8 * 8; w > 0 {
			reluBackAsm(w, &dx[i], &g[i], &y[i])
			i += w
		}
	}
	reluBackGo(dx[i:], g[i:], y[i:])
}

// reluBackGo is ReLUBackInto's twin: a select on the gradient's bits, which
// the compiler lowers to a conditional move — the sign of an activation is a
// coin flip to the branch predictor.
func reluBackGo(dx, g, y []float32) {
	g, y = g[:len(dx)], y[:len(dx)]
	for i, v := range g {
		b := math.Float32bits(v)
		if !(y[i] > 0) {
			b = 0
		}
		dx[i] = math.Float32frombits(b)
	}
}

func clampReLU6Go(x []float32) {
	for i, v := range x {
		x[i] = clamp6(v)
	}
}

// clamp6 is ReLU6 as two selects on the bits of v; the compiler lowers each
// to a conditional move, so random-sign input costs no mispredictions.
func clamp6(v float32) float32 {
	b := math.Float32bits(v)
	if v <= 0 {
		b = 0
	}
	if v >= 6 {
		b = sixBits
	}
	return math.Float32frombits(b)
}

// relu is `if v <= 0 { v = 0 }` as a select on the bits of v.
func relu(v float32) float32 {
	b := math.Float32bits(v)
	if v <= 0 {
		b = 0
	}
	return math.Float32frombits(b)
}

// AffineActInPlace applies the inference BatchNorm affine and an optional
// activation in one sweep: x[i] = act(g*(x[i]-mean)*invStd + b), evaluated
// left to right as subtract, multiply, multiply, add — four IEEE roundings,
// never a fused multiply-add — then the ReLU / ReLU6 comparisons of
// ReLUInPlace / ClampReLU6InPlace.
//
// The 512-bit kernel takes sixteen floats a step where it is live, the AVX2
// one eight, the Go twin the rest; per element all three are the same four
// roundings and the same comparisons.
func AffineActInPlace(x []float32, g, mean, invStd, b float32, act Act) {
	i := 0
	if useGemmAsm {
		// One loop serves all three activations: `keep` ORs into the v > 0
		// mask (all ones disables the lower clamp) and hi is the upper clamp,
		// +Inf where there is none (v >= +Inf selects +Inf).
		keep, hi := uint32(0), float32(math.Inf(1))
		switch act {
		case ActNone:
			keep = ^uint32(0)
		case ActReLU6:
			hi = 6
		}
		if useGemm512 {
			if i = len(x) / 16 * 16; i > 0 {
				affineAct512Asm(i, &x[0], g, mean, invStd, b, uint16(keep), hi)
			}
		}
		if n := (len(x) - i) / 8 * 8; n > 0 {
			affineActAsm(n, &x[i], g, mean, invStd, b, keep, hi)
			i += n
		}
	}
	affineActGo(x[i:], g, mean, invStd, b, act)
}

func affineActGo(x []float32, g, mean, invStd, b float32, act Act) {
	switch act {
	case ActReLU:
		for i, v := range x {
			x[i] = relu(float32(float32(g*(v-mean))*invStd) + b)
		}
	case ActReLU6:
		for i, v := range x {
			x[i] = clamp6(float32(float32(g*(v-mean))*invStd) + b)
		}
	default:
		for i, v := range x {
			x[i] = float32(float32(g*(v-mean))*invStd) + b
		}
	}
}

// DepthwiseRow computes the interior of one depthwise-convolution output row:
//
//	dst[j] = Σ_{r<rows} Σ_{c<kw} src[r*ld + j*stride + c] · ker[r*kw + c]
//
// src starts at the first in-bounds input row under dst[0]'s window and ker
// at the matching kernel row, so rows counts only taps that exist (a window
// hanging over the top or bottom edge passes fewer); every column tap must
// be in bounds — edge columns are the caller's. Each output accumulates from
// +0 in r-major, c-minor order, the product rounded before the add: the
// order of DepthwiseConv2D.Forward. Four outputs are interleaved so the
// dependent adds of one hide behind the others'.
func DepthwiseRow(dst, src []float32, ld, stride int, ker []float32, kw, rows int) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		var s0, s1, s2, s3 float32
		for r := 0; r < rows; r++ {
			kr := ker[r*kw : r*kw+kw]
			sr := src[r*ld+j*stride : r*ld+(j+3)*stride+kw]
			for c, k := range kr {
				s0 += float32(sr[c] * k)
				s1 += float32(sr[stride+c] * k)
				s2 += float32(sr[2*stride+c] * k)
				s3 += float32(sr[3*stride+c] * k)
			}
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dst); j++ {
		var s float32
		for r := 0; r < rows; r++ {
			kr := ker[r*kw : r*kw+kw]
			sr := src[r*ld+j*stride : r*ld+j*stride+kw]
			for c, k := range kr {
				s += float32(sr[c] * k)
			}
		}
		dst[j] = s
	}
}

// Depthwise3x3Row is DepthwiseRow for the depthwise workhorse — a 3-wide
// kernel at stride 1 — with eight outputs per AVX2 iteration; rows narrower
// than one iteration run DepthwiseRow.
func Depthwise3x3Row(dst, src []float32, ld int, ker []float32, rows int) {
	if n := len(dst); useGemmAsm && n >= 8 && rows > 0 {
		_, _ = src[(rows-1)*ld+n+1], ker[rows*3-1]
		depthwise3x3RowAsm(n, &dst[0], &src[0], ld, &ker[0], rows)
		return
	}
	DepthwiseRow(dst, src, ld, 1, ker, 3, rows)
}

// depthwiseSlack is how far past a padded window's last row the 512-bit plane
// kernels may load (into lanes they never store): 31 floats at stride 2.
const depthwiseSlack = 32

// DepthwiseWindowLen returns the scratch length DepthwisePlane needs for
// geometry g (InC is ignored): the zero-padded plane and the vector kernels'
// read slack.
func DepthwiseWindowLen(g ConvGeom) int {
	hp, wp := depthwiseWindow(g)
	return hp*wp + depthwiseSlack
}

// depthwiseWindow is the padded plane's extent: the image with its padding,
// or what the last output's taps reach where a kernel is taller or wider than
// that (ConvGeom rounds a negative span up to one output).
func depthwiseWindow(g ConvGeom) (hp, wp int) {
	hp = max(g.InH+2*g.PadH, (g.OutH()-1)*g.StrideH+g.KH)
	wp = max(g.InW+2*g.PadW, (g.OutW()-1)*g.StrideW+g.KW)
	return hp, wp
}

// DepthwisePlane computes one channel of a depthwise convolution: the
// OutH × OutW plane dst from the InH × InW plane src and the KH × KW kernel
// ker. It copies src into the interior of win, a zero-padded window of
// DepthwiseWindowLen(g) floats, and convolves the window with no edge case
// left: every output takes all KH·KW taps, from +0, kh-major and kw-minor,
// each product rounded before the add — the 512-bit plane kernels (3×3 at
// stride 1 and 2), the AVX2 row kernel (3×3 at stride 1) and DepthwiseRow
// for everything else, all on that one chain.
//
// That is the chain of the layer's definition, which skips the taps that fall
// in the padding; here they add 0·w. For finite w that is ±0, and the
// accumulator is never −0 (it starts at +0 and an exact zero sum rounds to
// +0), so adding it changes no bit. A non-finite weight makes 0·w NaN: the
// bits are the definition's for finite weights only.
//
// win must be all zeros before the first call (clear it once): each call
// writes only the interior, so the padding and slack stay zero for every
// later plane of the same geometry.
func DepthwisePlane(g ConvGeom, dst, src, ker, win []float32) {
	outH, outW := g.OutH(), g.OutW()
	hp, wp := depthwiseWindow(g)
	win = win[:hp*wp+depthwiseSlack]
	padPlane(win, wp, src, g)
	dst = dst[:outH*outW]
	ker = ker[:g.KH*g.KW]
	k3 := g.KH == 3 && g.KW == 3 && g.StrideH == g.StrideW
	switch {
	case useGemm512 && k3 && g.StrideW == 1:
		depthwise3x3PlaneAsm(outH, outW, &dst[0], &win[0], wp, &ker[0])
	case useGemm512 && k3 && g.StrideW == 2:
		depthwise3x3S2PlaneAsm(outH, outW, &dst[0], &win[0], wp, &ker[0])
	case k3 && g.StrideW == 1:
		for oh := 0; oh < outH; oh++ {
			Depthwise3x3Row(dst[oh*outW:][:outW], win[oh*wp:], wp, ker, 3)
		}
	default:
		for oh := 0; oh < outH; oh++ {
			DepthwiseRow(dst[oh*outW:][:outW], win[oh*g.StrideH*wp:], wp, g.StrideW, ker, g.KW, g.KH)
		}
	}
}

// padPlane copies the InH × InW plane src into the interior of a padded
// plane at win, row pitch wp, from row PadH and column PadW on; the padding
// is the caller's to clear.
func padPlane(win []float32, wp int, src []float32, g ConvGeom) {
	src = src[:g.InH*g.InW]
	at := g.PadH*wp + g.PadW
	if useGemm512 {
		_ = win[at+(g.InH-1)*wp+g.InW-1]
		padRowsAsm(g.InH, g.InW, &win[at], wp, &src[0])
		return
	}
	for r := 0; r < g.InH; r++ {
		copy(win[at+r*wp:][:g.InW], src[r*g.InW:])
	}
}

// MaxPool2x2Row max-pools one output row of a 2×2 window at stride 2:
// out[j] is the maximum of r0[2j], r0[2j+1], r1[2j], r1[2j+1], taken in that
// order with `if v > best { best = v }` — MaxPool2D.Forward's comparisons, so
// a NaN is kept only as a window's first tap and a tie (±0 included) keeps
// the earlier tap. r0 and r1 hold at least 2·len(out) floats.
func MaxPool2x2Row(out, r0, r1 []float32) {
	n := len(out)
	r0, r1 = r0[:2*n], r1[:2*n]
	i := 0
	if useGemmAsm {
		if i = n / 8 * 8; i > 0 {
			maxPool2x2Asm(i, &out[0], &r0[0], &r1[0])
		}
	}
	for j := i; j < n; j++ {
		best := r0[2*j]
		if v := r0[2*j+1]; v > best {
			best = v
		}
		if v := r1[2*j]; v > best {
			best = v
		}
		if v := r1[2*j+1]; v > best {
			best = v
		}
		out[j] = best
	}
}

// AddRows accumulates a strided block of rows: dst[r*ldd+i] += src[r*lds+i]
// for r < rows, i < n. It is the scatter-add of Col2ImWindow's contiguous
// runs and, with one row, the merge of gradient accumulators. The sum is the
// plain IEEE add of the two elements, which is also what an AXPY with α = 1
// computes (the product 1·v is exact), on the vector path and in the twin;
// runs under one 4-wide vector stay in Go, where the call would cost more
// than the adds. Rows of dst must not overlap src.
func AddRows(dst []float32, ldd int, src []float32, lds, n, rows int) {
	if n <= 0 || rows <= 0 {
		return
	}
	_, _ = dst[(rows-1)*ldd+n-1], src[(rows-1)*lds+n-1]
	if useGemmAsm && n >= 4 {
		addRowsAsm(rows, n, &dst[0], ldd, &src[0], lds)
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*ldd:][:n], src[r*lds:][:n]
		for i, v := range s {
			d[i] += v
		}
	}
}

// Accumulate adds src into dst elementwise: AddRows over one row.
func Accumulate(dst, src []float32) { AddRows(dst, 0, src, 0, len(src), 1) }

// AccumulateFloat64 adds src into dst elementwise in double precision:
// dst[i] += float64(src[i]). Widening a float32 is exact and each element
// gets one IEEE add, accumulator first, so the AVX2 kernel (eight floats a
// step) and the Go twin that runs the remainder and every other target give
// the same bits. It is the serving tail's per-block fold of float32 class
// scores into their float64 totals.
func AccumulateFloat64(dst []float64, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if useGemmAsm {
		if i = len(src) / 8 * 8; i > 0 {
			addFloat64Asm(i, &dst[0], &src[0])
		}
	}
	addFloat64Go(dst[i:], src[i:])
}

func addFloat64Go(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += float64(v)
	}
}

// adamCoef holds one Adam step's coefficients where adamAsm (elem_amd64.s)
// loads them: the float32 ones at byte offsets 0–16, the float64 ones from 24
// on.
type adamCoef struct {
	b1, b2, c1, c2, wd float32
	_                  uint32
	lr, eps, bc1, bc2  float64
}

// AdamStep applies one Adam update to the parameters w from their gradients
// g, updating the moment estimates m and v in place; all four have len(w)
// elements. Per element, with c1 = 1−b1 and c2 = 1−b2 rounded to float32:
//
//	g' = g + wd·w                                (float32, only when wd != 0)
//	m  = b1·m + c1·g'                            (float32)
//	v  = b2·v + (c2·g')·g'                       (float32)
//	w −= float32(lr·(m/bc1) / (√(v/bc2) + eps))  (float64 inside)
//
// every product rounded before its add — never a fused multiply-add — and
// the float64 expression evaluated in that order, one float32 rounding at its
// end. The AVX2 kernel takes eight elements a step and the Go twin the rest,
// with these IEEE operations in this order, so they give the same bits (NaN
// and ±Inf gradients included). It is the kernel at both widths: a 512-bit
// twin, bound by the same float64 divider, measured 0.6–0.8× its speed.
func AdamStep(w, g, m, v []float32, lr, eps, bc1, bc2 float64, b1, b2, wd float32) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	c := adamCoef{b1: b1, b2: b2, c1: 1 - b1, c2: 1 - b2, wd: wd, lr: lr, eps: eps, bc1: bc1, bc2: bc2}
	i := 0
	if useGemmAsm {
		if i = n / 8 * 8; i > 0 {
			adamAsm(i, &w[0], &g[0], &m[0], &v[0], &c)
		}
	}
	adamGo(w[i:], g[i:], m[i:], v[i:], &c)
}

// adamGo is AdamStep's twin. The float32 conversions pin every product's
// rounding on a build that fuses multiply-adds.
func adamGo(w, g, m, v []float32, c *adamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, gi := range g {
		if c.wd != 0 {
			gi += float32(c.wd * w[i])
		}
		mi := float32(c.b1*m[i]) + float32(c.c1*gi)
		vi := float32(c.b2*v[i]) + float32(float32(c.c2*gi)*gi)
		m[i], v[i] = mi, vi
		w[i] -= float32(float64(c.lr*(float64(mi)/c.bc1)) / (math.Sqrt(float64(vi)/c.bc2) + c.eps))
	}
}

// SGDStep applies one step of SGD with classical momentum to the parameters
// w from their gradients g, updating the velocity v in place; all three have
// len(w) elements. Per element, in float32:
//
//	g' = g + wd·w      (only when wd != 0)
//	v  = mu·v + g'
//	w −= lr·v
//
// every product rounded before its add. The AVX2 kernel takes eight
// elements a step and the Go twin the rest, with the same operations in the
// same order, so they give the same bits. It is the kernel at both widths:
// the step streams three arrays and a 512-bit twin measured no faster.
func SGDStep(w, g, v []float32, lr, mu, wd float32) {
	n := len(w)
	g, v = g[:n], v[:n]
	i := 0
	if useGemmAsm {
		if i = n / 8 * 8; i > 0 {
			sgdAsm(i, &w[0], &g[0], &v[0], lr, mu, wd)
		}
	}
	sgdGo(w[i:], g[i:], v[i:], lr, mu, wd)
}

// sgdGo is SGDStep's twin; the float32 conversions pin each product's
// rounding on a build that fuses multiply-adds.
func sgdGo(w, g, v []float32, lr, mu, wd float32) {
	g, v = g[:len(w)], v[:len(w)]
	for i, gi := range g {
		if wd != 0 {
			gi += float32(wd * w[i])
		}
		v[i] = float32(mu*v[i]) + gi
		w[i] -= float32(lr * v[i])
	}
}
