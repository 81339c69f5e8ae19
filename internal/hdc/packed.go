package hdc

import (
	"fmt"
	"math/bits"

	"nshd/internal/tensor"
)

// PackedHV stores a bipolar hypervector one bit per dimension (+1 → 0 bit,
// -1 → 1 bit) in uint64 words. For bipolar vectors,
//
//	dot(a, b) = D - 2·hamming(a, b)
//
// so similarity reduces to XOR + popcount, the binary kernel the paper runs
// in GPU constant memory and on the FPGA DPU.
type PackedHV struct {
	D     int
	Words []uint64
}

// NewPackedHV allocates an all-(+1) packed hypervector of dimension d.
func NewPackedHV(d int) *PackedHV {
	return &PackedHV{D: d, Words: make([]uint64, (d+63)/64)}
}

// PackHV packs a dense hypervector (components interpreted through sign,
// with sign(0) = +1) into bit form.
func PackHV(h Hypervector) *PackedHV {
	p := NewPackedHV(len(h))
	PackRowInto(p.Words, h)
	return p
}

// PackRowInto sign-packs a dense row into words (bit i set iff row[i] < 0,
// so sign(0) = +1 as everywhere else). words must hold (len(row)+63)/64
// entries; the tail bits of the last word are left zero, which keeps Hamming
// and PackedDot exact for any D. This is the fast path for packing whole
// query batches — on amd64 it extracts sign bits 8 floats at a time.
func PackRowInto(words []uint64, row []float32) {
	tensor.PackSignsInto(words, row)
}

// RandomPacked samples a uniform packed bipolar hypervector.
func RandomPacked(rng *tensor.RNG, d int) *PackedHV {
	p := NewPackedHV(d)
	for i := range p.Words {
		p.Words[i] = rng.Uint64()
	}
	// Mask tail bits beyond D so Hamming never counts them.
	if tail := d % 64; tail != 0 {
		p.Words[len(p.Words)-1] &= (1 << tail) - 1
	}
	return p
}

// Unpack expands the packed form back to a dense bipolar hypervector.
func (p *PackedHV) Unpack() Hypervector {
	h := NewHypervector(p.D)
	for i := 0; i < p.D; i++ {
		if p.Words[i/64]>>(i%64)&1 == 1 {
			h[i] = -1
		} else {
			h[i] = 1
		}
	}
	return h
}

// Bit returns the dense value (+1 or -1) of dimension i.
func (p *PackedHV) Bit(i int) float32 {
	if p.Words[i/64]>>(i%64)&1 == 1 {
		return -1
	}
	return 1
}

// Hamming returns the number of differing dimensions between a and b.
func Hamming(a, b *PackedHV) int {
	if a.D != b.D {
		panic(fmt.Sprintf("hdc: Hamming dimension mismatch %d vs %d", a.D, b.D))
	}
	n := 0
	for i, w := range a.Words {
		n += bits.OnesCount64(w ^ b.Words[i])
	}
	return n
}

// PackedDot returns the bipolar dot product via popcount: D - 2·hamming.
func PackedDot(a, b *PackedHV) int {
	return a.D - 2*Hamming(a, b)
}

// PackedMatrix is a row-major matrix of packed hypervectors, used for the
// binary random projection P ([F rows][D bits]) and for class hypervector
// sets in the quantized inference path.
type PackedMatrix struct {
	Rows, D int
	HVs     []*PackedHV
}

// NewPackedMatrix packs each row of a dense [rows, d] tensor.
func NewPackedMatrix(m *tensor.Tensor) *PackedMatrix {
	if m.Rank() != 2 {
		panic("hdc: NewPackedMatrix requires rank-2 tensor")
	}
	rows, d := m.Shape[0], m.Shape[1]
	pm := &PackedMatrix{Rows: rows, D: d, HVs: make([]*PackedHV, rows)}
	for r := 0; r < rows; r++ {
		pm.HVs[r] = PackHV(Hypervector(m.Row(r)))
	}
	return pm
}

// Row returns packed row r.
func (pm *PackedMatrix) Row(r int) *PackedHV { return pm.HVs[r] }

// MemoryBytes returns the storage footprint of the packed matrix.
func (pm *PackedMatrix) MemoryBytes() int64 {
	return int64(pm.Rows) * int64((pm.D+63)/64) * 8
}
