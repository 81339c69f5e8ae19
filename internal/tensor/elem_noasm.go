//go:build !amd64

package tensor

func signAsm(n int, p *float32) {
	panic("tensor: signAsm requires amd64")
}

func clampReLU6Asm(n int, dst, src *float32) {
	panic("tensor: clampReLU6Asm requires amd64")
}

func affineActAsm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint32, hi float32) {
	panic("tensor: affineActAsm requires amd64")
}

func depthwise3x3RowAsm(n int, dst, src *float32, ld int, ker *float32, rows int) {
	panic("tensor: depthwise3x3RowAsm requires amd64")
}

func depthwise3x3PlaneAsm(outH, outW int, dst, win *float32, wp int, ker *float32) {
	panic("tensor: depthwise3x3PlaneAsm requires amd64")
}

func depthwise3x3S2PlaneAsm(outH, outW int, dst, win *float32, wp int, ker *float32) {
	panic("tensor: depthwise3x3S2PlaneAsm requires amd64")
}

func padRowsAsm(rows, n int, dst *float32, ldd int, src *float32) {
	panic("tensor: padRowsAsm requires amd64")
}

func affineAct512Asm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint16, hi float32) {
	panic("tensor: affineAct512Asm requires amd64")
}

func maxPool2x2Asm(n int, out, r0, r1 *float32) {
	panic("tensor: maxPool2x2Asm requires amd64")
}

func addRowsAsm(rows, n int, dst *float32, ldd int, src *float32, lds int) {
	panic("tensor: addRowsAsm requires amd64")
}

func addFloat64Asm(n int, dst *float64, src *float32) {
	panic("tensor: addFloat64Asm requires amd64")
}

func reluBackAsm(n int, dst, grad, y *float32) {
	panic("tensor: reluBackAsm requires amd64")
}

func reluBack512Asm(n int, dst, grad, y *float32) {
	panic("tensor: reluBack512Asm requires amd64")
}

func adamAsm(n int, w, grad, m, v *float32, c *adamCoef) {
	panic("tensor: adamAsm requires amd64")
}

func sgdAsm(n int, w, grad, v *float32, lr, mu, wd float32) {
	panic("tensor: sgdAsm requires amd64")
}

func sumSquaresAsm(n int, x *float32) float64 {
	panic("tensor: sumSquaresAsm requires amd64")
}
