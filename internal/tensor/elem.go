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
func AffineActInPlace(x []float32, g, mean, invStd, b float32, act Act) {
	i := 0
	if useGemmAsm {
		if i = len(x) / 8 * 8; i > 0 {
			// One loop serves all three activations: `keep` ORs into the
			// v > 0 mask (all ones disables the lower clamp) and hi is the
			// upper clamp, +Inf where there is none (v >= +Inf selects +Inf).
			keep, hi := uint32(0), float32(math.Inf(1))
			switch act {
			case ActNone:
				keep = ^uint32(0)
			case ActReLU6:
				hi = 6
			}
			affineActAsm(i, &x[0], g, mean, invStd, b, keep, hi)
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
