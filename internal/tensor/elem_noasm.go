//go:build !amd64

package tensor

func signAsm(n int, p *float32) {
	panic("tensor: signAsm requires amd64")
}

func clampReLU6Asm(n int, p *float32) {
	panic("tensor: clampReLU6Asm requires amd64")
}

func affineActAsm(n int, p *float32, gamma, mean, invStd, beta float32, keep uint32, hi float32) {
	panic("tensor: affineActAsm requires amd64")
}

func depthwise3x3RowAsm(n int, dst, src *float32, ld int, ker *float32, rows int) {
	panic("tensor: depthwise3x3RowAsm requires amd64")
}

func maxPool2x2Asm(n int, out, r0, r1 *float32) {
	panic("tensor: maxPool2x2Asm requires amd64")
}

func addRowsAsm(rows, n int, dst *float32, ldd int, src *float32, lds int) {
	panic("tensor: addRowsAsm requires amd64")
}
