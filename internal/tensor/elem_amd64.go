package tensor

// The AVX2 halves of the kernels in elem.go, all behind useGemmAsm. The
// in-place sweeps take n as a positive multiple of 8.

//go:noescape
func signAsm(n int, p *float32)

//go:noescape
func clampReLU6Asm(n int, p *float32)

//go:noescape
func affineActAsm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint32, hi float32)

// depthwise3x3RowAsm needs n ≥ 8, rows in 1..3, (rows-1)*ld+n+2 readable
// floats at src and 3*rows at ker.
//
//go:noescape
func depthwise3x3RowAsm(n int, dst, src *float32, ld int, ker *float32, rows int)

// maxPool2x2Asm writes n outputs (a positive multiple of 8) from 2n floats at
// each of r0 and r1.
//
//go:noescape
func maxPool2x2Asm(n int, out, r0, r1 *float32)

// addRowsAsm adds rows × n floats of src into dst, row r at element offsets
// r*ldd and r*lds; rows and n are positive and every touched element is in
// bounds.
//
//go:noescape
func addRowsAsm(rows, n int, dst *float32, ldd int, src *float32, lds int)
