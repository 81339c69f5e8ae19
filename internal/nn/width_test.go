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
