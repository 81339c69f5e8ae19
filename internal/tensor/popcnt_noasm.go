//go:build !amd64

package tensor

// Non-amd64 builds always use the scalar bits.OnesCount64 loop.
const usePopcntAsm = false

func xorPopcntAsm(groups int, a, b *uint64) int64 {
	panic("tensor: xorPopcntAsm requires amd64")
}
