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
