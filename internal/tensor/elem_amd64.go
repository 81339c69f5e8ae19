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

// depthwise3x3PlaneAsm and depthwise3x3S2PlaneAsm (elem512_amd64.s, behind
// useGemm512) write an outH × outW plane at stride 1 and 2 from a padded
// window of row length wp that has depthwiseSlack floats after its last row;
// outH and outW ≥ 1, 9 floats at ker.
//
//go:noescape
func depthwise3x3PlaneAsm(outH, outW int, dst, win *float32, wp int, ker *float32)

//go:noescape
func depthwise3x3S2PlaneAsm(outH, outW int, dst, win *float32, wp int, ker *float32)

// padRowsAsm (512-bit) copies rows × n packed floats to a row pitch of ldd;
// rows, n ≥ 1.
//
//go:noescape
func padRowsAsm(rows, n int, dst *float32, ldd int, src *float32)

// affineAct512Asm is affineActAsm sixteen floats a step, n a positive
// multiple of 16; keep is the lane mask of its all-ones keep.
//
//go:noescape
func affineAct512Asm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint16, hi float32)

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

// addFloat64Asm adds n floats (a positive multiple of 8) at src, widened, into
// the n doubles at dst.
//
//go:noescape
func addFloat64Asm(n int, dst *float64, src *float32)

// reluBackAsm and reluBack512Asm (elem512_amd64.s, behind useGemm512) write
// ReLU's input gradient for n floats, a positive multiple of 8 and 16.
//
//go:noescape
func reluBackAsm(n int, dst, grad, y *float32)

//go:noescape
func reluBack512Asm(n int, dst, grad, y *float32)

// adamAsm applies AdamStep to n elements, a positive multiple of 8.
//
//go:noescape
func adamAsm(n int, w, grad, m, v *float32, c *adamCoef)

// sgdAsm applies SGDStep to n elements, a positive multiple of 8.
//
//go:noescape
func sgdAsm(n int, w, grad, v *float32, lr, mu, wd float32)
