package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to an input of C channels and H×W spatial extent.
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate checks the geometry produces a positive output extent.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	}
	if g.KH <= 0 || g.KW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive kernel/stride %+v", g)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry yields non-positive output %+v", g)
	}
	return nil
}

// tapRange returns the half-open range of output positions along one axis at
// which kernel tap k reads inside the image — o·stride − pad + k in [0, in) —
// clamped to [0, out] with lo <= hi, so a tap that never lands in the image
// (a kernel wider than the padded map) yields an empty range, not an inverted
// one.
func tapRange(in, out, stride, pad, k int) (lo, hi int) {
	if pad > k {
		lo = min((pad-k+stride-1)/stride, out)
	}
	if last := in - 1 + pad - k; last >= 0 {
		hi = min(last/stride+1, out)
	}
	return lo, max(hi, lo)
}

// Im2ColWindow expands one image (C×H×W, flattened in x) into its column
// matrix, (C·KH·KW) × (OutH·OutW) with one receptive field per column and
// zeros at padding, written as a column window of a wider matrix: row r goes
// to dst[r*ld+off : r*ld+off+OutH*OutW]. A chunk of samples stacked side by
// side this way is one GEMM operand.
//
// At stride 1 every row of the column matrix is copies flanked by zeros. When
// the output is as wide as the input (the same-padded layers) the whole row
// is ONE copy: output position j = oh·W + ow reads channel offset
// j + (kh−PadH)·W + (kw−PadW), a constant shift of the flattened channel, so
// the in-image rows [ohLo, ohHi) are a single shifted copy. The copy runs
// |kw−PadW| floats over each row boundary — pixels of the neighbouring image
// row where the tap is in the padding — and those wrapped row ends are then
// zeroed, with the rows outside the image. Otherwise each output row is one
// clear / copy / clear. The extents depend on the tap alone, so the tap loops
// are the outer ones and the channel loop repeats one pattern of lengths: on
// a 2×2 or 4×4 map the calls cost more than the floats they move, and lengths
// that change from row to row are mispredicted branches.
func Im2ColWindow(g ConvGeom, x, dst []float32, ld, off int) {
	outH, outW := g.OutH(), g.OutW()
	hw, chanLen := outH*outW, g.InH*g.InW
	flat := g.StrideW == 1 && g.StrideH == 1 && outW == g.InW
	for kh := 0; kh < g.KH; kh++ {
		ohLo, ohHi := tapRange(g.InH, outH, g.StrideH, g.PadH, kh)
		for kw := 0; kw < g.KW; kw++ {
			owLo, owHi := tapRange(g.InW, outW, g.StrideW, g.PadW, kw)
			empty := ohLo == ohHi || owLo == owHi // the tap never reads the image
			// The flat copy: its extent in the row, its start in the channel,
			// and the floats it carries over each row boundary.
			first, last := ohLo*outW+owLo, (ohHi-1)*outW+owHi
			shift := (kh-g.PadH)*g.InW + kw - g.PadW
			wrap := outW - owHi + owLo
			for c := 0; c < g.InC; c++ {
				row := dst[((c*g.KH+kh)*g.KW+kw)*ld+off:][:hw]
				xc := x[c*chanLen:][:chanLen]
				if empty {
					clear(row)
					continue
				}
				if flat {
					clear(row[:first])
					copy(row[first:last], xc[first+shift:])
					clear(row[last:])
					if wrap > 0 {
						for at := ohLo*outW + owHi; at < last; at += outW {
							for i := at; i < at+wrap; i++ {
								row[i] = 0
							}
						}
					}
					continue
				}
				clear(row[:ohLo*outW])
				clear(row[ohHi*outW:])
				for oh := ohLo; oh < ohHi; oh++ {
					drow := row[oh*outW:][:outW]
					src := xc[(oh*g.StrideH-g.PadH+kh)*g.InW:][:g.InW]
					clear(drow[:owLo])
					clear(drow[owHi:])
					if g.StrideW == 1 {
						copy(drow[owLo:owHi], src[owLo-g.PadW+kw:])
						continue
					}
					for ow := owLo; ow < owHi; ow++ {
						drow[ow] = src[ow*g.StrideW-g.PadW+kw]
					}
				}
			}
		}
	}
}

// Col2ImWindow scatters the column windows of b samples, side by side from
// column 0 of a wider matrix in the layout Im2ColWindow writes (sample s's
// row r at src[r*ld+s*HW:][:HW], HW = OutH·OutW), back into their image
// gradients, b images of C×H×W one after another in dx, adding each tap. dx
// must hold no −0 and no signaling NaN: the caller clears it first, and no
// sum added to it is either.
//
// The tap loops are the outer ones as in Im2ColWindow, so every image
// element receives its taps in (kh, kw) order; the channels and samples
// share nothing, so the order of the inner loops is not visible in the sums.
// Where the output is as wide as the input at stride 1 (the same-padded
// layers), output position j of tap (kh, kw) reads the constant shift
// j + (kh−PadH)·W + (kw−PadW) of the flattened channel, as in Im2ColWindow's
// flat copy: the in-image positions [first, last) of a row are one run once
// the |kw−PadW| entries that wrap over each row boundary are set to +0 in
// src, which this overwrites. Such a +0 adds to an in-image element of the
// neighbouring image row, and x + (+0) is x for every x but −0 and a
// signaling NaN, which dx never holds: a round-to-nearest sum is −0 only when
// both terms are, and an arithmetic result is never a signaling NaN. Then one AddRows call adds a (c, kh, kw) row's run for all b samples,
// which on the 4×4 and 2×2 maps replaces b·OutH calls on runs of one to four
// floats. Other geometries walk each sample's rows, the in-image part of an
// output row one AddRows run at stride 1 and one element at a time
// otherwise.
func Col2ImWindow(g ConvGeom, src []float32, ld, b int, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	hw, chanLen := outH*outW, g.InH*g.InW
	sampleIn := g.InC * chanLen
	flat := g.StrideW == 1 && g.StrideH == 1 && outW == g.InW
	for kh := 0; kh < g.KH; kh++ {
		ohLo, ohHi := tapRange(g.InH, outH, g.StrideH, g.PadH, kh)
		for kw := 0; kw < g.KW; kw++ {
			owLo, owHi := tapRange(g.InW, outW, g.StrideW, g.PadW, kw)
			if ohLo == ohHi || owLo == owHi {
				continue
			}
			// The image element the first in-image tap reads, and the output
			// position that reads it.
			imgAt := (ohLo*g.StrideH-g.PadH+kh)*g.InW + owLo*g.StrideW - g.PadW + kw
			colAt := ohLo*outW + owLo
			if flat {
				last := (ohHi-1)*outW + owHi
				wrap := outW - owHi + owLo
				for c := 0; c < g.InC; c++ {
					row := src[((c*g.KH+kh)*g.KW+kw)*ld:]
					for s := 0; wrap > 0 && s < b; s++ {
						for at := s*hw + ohLo*outW + owHi; at < s*hw+last; at += outW {
							for i := at; i < at+wrap; i++ {
								row[i] = 0
							}
						}
					}
					AddRows(dx[c*chanLen+imgAt:], sampleIn, row[colAt:], hw, last-colAt, b)
				}
				continue
			}
			for s := 0; s < b; s++ {
				for c := 0; c < g.InC; c++ {
					row := src[((c*g.KH+kh)*g.KW+kw)*ld+s*hw:][:hw]
					img := dx[s*sampleIn+c*chanLen:][:chanLen]
					if g.StrideW == 1 {
						AddRows(img[imgAt:], g.StrideH*g.InW, row[colAt:], outW, owHi-owLo, ohHi-ohLo)
						continue
					}
					for oh := ohLo; oh < ohHi; oh++ {
						drow := img[imgAt+(oh-ohLo)*g.StrideH*g.InW:]
						for ow := owLo; ow < owHi; ow++ {
							drow[(ow-owLo)*g.StrideW] += row[oh*outW+ow]
						}
					}
				}
			}
		}
	}
}
