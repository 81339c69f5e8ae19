package tensor

// usePopcntAsm gates the AVX2 VPSHUFB-LUT popcount kernel. Unlike the GEMM
// gate it does not require FMA — the kernel is integer-only — but it needs
// the same OS-managed YMM state checks.
var usePopcntAsm = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, c1, _ := cpuidex(1, 0)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	const avx2Bit = 1 << 5
	_, b7, _, _ := cpuidex(7, 0)
	return b7&avx2Bit != 0
}

// xorPopcntAsm returns Σ OnesCount64(a[w]^b[w]) over 4·groups words.
// groups must be ≥ 1.
//
//go:noescape
func xorPopcntAsm(groups int, a, b *uint64) int64
