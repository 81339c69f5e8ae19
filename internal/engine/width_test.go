package engine_test

import (
	"testing"

	"nshd/internal/tensor/tensortest"
)

// TestEngineGatesAt256 runs the engine's differential and allocation gates a
// second time with the 512-bit GEMM kernels off: where those are live every
// other test here runs on them, and engine ≡ pipeline, fused ≡ unfused
// extract and the zero-allocation steady state must hold on the 256-bit
// kernels an AVX2 machine serves with.
func TestEngineGatesAt256(t *testing.T) {
	tensortest.At256(t)
	t.Run("TailMatchesPipeline", TestEngineTailMatchesPipeline)
	t.Run("FusedExtractBitExact", TestEngineFusedExtractBitExact)
	t.Run("ZeroAlloc", TestEngineZeroAlloc)
	t.Run("ZeroAllocBatch1", TestEngineZeroAllocBatch1)
}

// TestEngineGatesPortable runs the engine-vs-pipeline and fused-vs-unfused
// gates on the Go twins of every vector kernel, the code the portable build
// serves with, which tier-1 on amd64 would otherwise never run end to end.
func TestEngineGatesPortable(t *testing.T) {
	tensortest.Portable(t)
	t.Run("TailMatchesPipeline", TestEngineTailMatchesPipeline)
	t.Run("FusedExtractBitExact", TestEngineFusedExtractBitExact)
}
