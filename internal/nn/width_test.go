package nn

import (
	"testing"

	"nshd/internal/tensor/tensortest"
)

// TestFusedBlockGatesAt256 runs the fused-block gates a second time with the
// 512-bit GEMM kernels off: where those are live every other test here runs
// on them, and fused ≡ unfused, the partition split and the steady-state
// allocation count must hold on the 256-bit kernels an AVX2 machine serves
// with.
func TestFusedBlockGatesAt256(t *testing.T) {
	tensortest.At256(t)
	t.Run("MatchesUnfused", TestFusedBlockMatchesUnfused)
	t.Run("PartitionsBitEqual", TestFusedBlockPartitionsBitEqual)
	t.Run("ZeroAllocSteadyState", TestFusedBlockZeroAllocSteadyState)
}

// TestConvLatticesAtEveryWidth runs the Conv2D shape lattices again on the
// 256-bit kernels and on the portable Go kernels: the rows form, the in-place
// weight gradient and dcols must equal the column products on every kernel
// set a machine may serve with, not only the 512-bit one every other test
// here runs on where it is live.
func TestConvLatticesAtEveryWidth(t *testing.T) {
	for _, w := range []struct {
		name string
		set  func(testing.TB)
	}{{"at256", tensortest.At256}, {"portable", tensortest.Portable}} {
		t.Run(w.name, func(t *testing.T) {
			w.set(t)
			t.Run("Forward", TestConv2DForwardShapeLattice)
			t.Run("Backward", TestConv2DBackwardShapeLattice)
		})
	}
}
