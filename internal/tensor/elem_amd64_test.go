package tensor

// runWithAsm runs f with the assembly kernels forced on or off, as
// gemm_amd64_test.go toggles them, and reports whether it ran: false when asm
// is asked for on a machine without AVX2.
func runWithAsm(asm bool, f func()) bool {
	if asm && !useGemmAsm {
		return false
	}
	defer func(prev bool) { useGemmAsm = prev }(useGemmAsm)
	useGemmAsm = asm
	f()
	return true
}
