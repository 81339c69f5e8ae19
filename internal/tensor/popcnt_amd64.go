package tensor

// xorPopcntAsm returns Σ OnesCount64(a[w]^b[w]) over 4·groups words.
// groups must be ≥ 1.
//
//go:noescape
func xorPopcntAsm(groups int, a, b *uint64) int64
