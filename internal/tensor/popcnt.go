package tensor

import (
	"fmt"
	"math/bits"
)

// popcntAsmMinWords is the word count below which one scalar pass beats the
// vector kernel's setup (LUT loads, horizontal reduce). Var, not const, so
// tests can force both paths on any input length.
var popcntAsmMinWords = 8

// XorPopcount returns the Hamming distance between two packed bit vectors:
// Σ OnesCount64(a[w] ^ b[w]) over w < len(a). b may be longer than a; only
// its first len(a) words participate. The count is an exact integer, so the
// AVX2 kernel and the scalar fallback agree bit-for-bit on every input.
func XorPopcount(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		panic(fmt.Sprintf("tensor: XorPopcount length mismatch %d vs %d", n, len(b)))
	}
	w := 0
	var s int64
	if g := n / 4; usePopcntAsm && g > 0 && n >= popcntAsmMinWords {
		s = xorPopcntAsm(g, &a[0], &b[0])
		w = g * 4
	}
	for ; w < n; w++ {
		s += int64(bits.OnesCount64(a[w] ^ b[w]))
	}
	return int(s)
}
