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

// runWithGemm512 runs f with the 512-bit GEMM kernels forced on or off and
// reports whether it ran: false when they are asked for on a machine without
// usable AVX-512 state.
func runWithGemm512(on bool, f func()) bool {
	if on && !useGemm512 {
		return false
	}
	defer func(prev bool) { useGemm512 = prev }(useGemm512)
	useGemm512 = on
	f()
	return true
}
