//go:build !amd64

package tensor

// runWithAsm runs f when the Go twin is asked for; there is no assembly here.
func runWithAsm(asm bool, f func()) bool {
	if asm {
		return false
	}
	f()
	return true
}

// runWithGemm512 runs f when the 256-bit side is asked for; there is no
// 512-bit kernel here.
func runWithGemm512(on bool, f func()) bool {
	if on {
		return false
	}
	f()
	return true
}
