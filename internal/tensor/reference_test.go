package tensor

// The allocating and per-element forms the tests check the kernels against.

// MatMulT returns a(M×K) @ bᵀ where b is N×K — the layout used for similarity
// of a query batch against class hypervectors. Both operands are K-contiguous;
// each output element accumulates over the full K range independently, which
// keeps results identical for any parallel row split.
func MatMulT(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[0])
	MatMulTInto(out, a, b)
	return out
}

// at returns element (r, c) as ±1.
func (g *BipolarGen) at(r, c int) float32 {
	return 1 - 2*float32((g.word(r, c>>6)>>uint(c&63))&1)
}
