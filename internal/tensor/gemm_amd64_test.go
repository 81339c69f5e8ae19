package tensor

import (
	"math"
	"testing"
)

// TestMatMulAccTAsmMatchesGo runs the accumulating transposed-B product with
// the AVX2 micro-kernel and again with the portable dot kernel over the same
// shape lattice. The two differ only by fused vs separately rounded
// multiply-adds, the O(√K·ε) bound of TestMatMulMatchesNaive.
func TestMatMulAccTAsmMatchesGo(t *testing.T) {
	if !useGemmAsm {
		t.Skip("no AVX2 kernel on this machine")
	}
	defer func() { useGemmAsm = true }()
	for _, m := range accTDims.m {
		for _, n := range accTDims.n {
			for _, k := range accTDims.k {
				useGemmAsm = true
				asm, _ := accTCase(m, n, k)
				useGemmAsm = false
				pure, _ := accTCase(m, n, k)
				tol := 1e-6 * (4 + math.Sqrt(float64(k))*4)
				if d := maxRelDiff(pure, asm); d > tol {
					t.Errorf("shape %dx%dx%d: asm vs pure-Go rel diff %g > %g", m, n, k, d, tol)
				}
			}
		}
	}
}
