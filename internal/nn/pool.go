package nn

import (
	"fmt"
	"math"

	"nshd/internal/tensor"
)

// MaxPool2D is a k×k max pooling layer with stride equal to k (the form used
// by VGG and by the manifold learner's pre-pooling step).
type MaxPool2D struct {
	K int

	cachedArg []int32 // flat input index chosen per output element
	cachedIn  []int   // per-sample input shape
	cachedN   int
}

// NewMaxPool2D constructs a max pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool%dx%d", m.K, m.K) }

// Forward pools each k×k window to its maximum, caching argmax indices in
// train mode. Values are the same in both modes, and ForwardInfer's.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := batchOf(x, "MaxPool2D")
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects [N C H W], got %v", x.Shape))
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := h/m.K, w/m.K
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window %d larger than input %dx%d", m.K, h, w))
	}
	y := tensor.New(n, c, outH, outW)
	var arg []int32
	if train {
		arg = make([]int32, n*c*outH*outW)
		m.cachedIn = []int{c, h, w}
		m.cachedN = n
	}
	tensor.ParallelFor(n, func(lo, hi int) {
		m.poolPlanes(y.Data, arg, x.Data, lo*c, hi*c, h, w)
	})
	m.cachedArg = arg
	return y
}

// poolPlanes pools channel planes [plo, phi) of x (h×w each) into y and, when
// arg is non-nil, records per output the flat index in x of the tap that won.
// Taps are compared kh-major, kw-minor with `if v > best`, so a NaN is kept
// only as a window's first tap and a tie (±0 included) keeps the earlier one.
//
// The 2×2 window takes its values from tensor.MaxPool2x2Row, which makes
// exactly those comparisons, and derives the winner afterwards as the first
// tap whose bits equal the output's. That is the tap the comparison loop
// ends on: an earlier tap with the winner's bits has the winner's value (or
// is the same NaN), so either it was the running best when the winner came
// — and the winner, not strictly greater, would not have replaced it — or
// the best was already at least that large (or a first-tap NaN) and the
// winner could not have won either.
func (m *MaxPool2D) poolPlanes(y []float32, arg []int32, x []float32, plo, phi, h, w int) {
	outH, outW := h/m.K, w/m.K
	for p := plo; p < phi; p++ {
		inBase, outBase := p*h*w, p*outH*outW
		for oh := 0; oh < outH; oh++ {
			out := y[outBase+oh*outW:][:outW]
			if m.K == 2 {
				at := inBase + 2*oh*w
				r0, r1 := x[at:][:2*outW], x[at+w:][:2*outW]
				tensor.MaxPool2x2Row(out, r0, r1)
				if arg != nil {
					for j, v := range out {
						bits, tap := math.Float32bits(v), w+1
						if math.Float32bits(r1[2*j]) == bits {
							tap = w
						}
						if math.Float32bits(r0[2*j+1]) == bits {
							tap = 1
						}
						if math.Float32bits(r0[2*j]) == bits {
							tap = 0
						}
						arg[outBase+oh*outW+j] = int32(at + 2*j + tap)
					}
				}
				continue
			}
			for ow := range out {
				best := float32(0)
				bestAt := -1
				for kh := 0; kh < m.K; kh++ {
					ih := oh*m.K + kh
					for kw := 0; kw < m.K; kw++ {
						iw := ow*m.K + kw
						v := x[inBase+ih*w+iw]
						if bestAt < 0 || v > best {
							best, bestAt = v, inBase+ih*w+iw
						}
					}
				}
				out[ow] = best
				if arg != nil {
					arg[outBase+oh*outW+ow] = int32(bestAt)
				}
			}
		}
	}
}

// Backward routes each output gradient to the input position that won the max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.cachedArg == nil {
		panic("nn: MaxPool2D.Backward without Forward(train=true)")
	}
	c, h, w := m.cachedIn[0], m.cachedIn[1], m.cachedIn[2]
	dx := tensor.New(m.cachedN, c, h, w)
	for i, a := range m.cachedArg {
		dx.Data[a] += grad.Data[i]
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: MaxPool2D given input shape %v", in))
	}
	return []int{in[0], in[1] / m.K, in[2] / m.K}
}

// Stats implements Layer. Pooling performs comparisons, not MACs; we follow
// the paper's convention of counting only multiply-accumulates.
func (m *MaxPool2D) Stats(in []int) Stats {
	out := m.OutShape(in)
	return Stats{ActBytes: int64(shapeElems(out)) * 4}
}

// AvgPool2D is k×k average pooling with stride k.
type AvgPool2D struct {
	K        int
	cachedIn []int
	cachedN  int
}

// NewAvgPool2D constructs an average pooling layer.
func NewAvgPool2D(k int) *AvgPool2D { return &AvgPool2D{K: k} }

// Name implements Layer.
func (m *AvgPool2D) Name() string { return fmt.Sprintf("avgpool%dx%d", m.K, m.K) }

// Forward averages each k×k window.
func (m *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := batchOf(x, "AvgPool2D")
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := h/m.K, w/m.K
	y := tensor.New(n, c, outH, outW)
	inv := 1 / float32(m.K*m.K)
	tensor.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ch := 0; ch < c; ch++ {
				inBase := (i*c + ch) * h * w
				outBase := (i*c + ch) * outH * outW
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						var s float32
						for kh := 0; kh < m.K; kh++ {
							for kw := 0; kw < m.K; kw++ {
								s += x.Data[inBase+(oh*m.K+kh)*w+(ow*m.K+kw)]
							}
						}
						y.Data[outBase+oh*outW+ow] = s * inv
					}
				}
			}
		}
	})
	if train {
		m.cachedIn = []int{c, h, w}
		m.cachedN = n
	}
	return y
}

// Backward spreads each output gradient uniformly over its window.
func (m *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c, h, w := m.cachedIn[0], m.cachedIn[1], m.cachedIn[2]
	outH, outW := h/m.K, w/m.K
	dx := tensor.New(m.cachedN, c, h, w)
	inv := 1 / float32(m.K*m.K)
	for i := 0; i < m.cachedN; i++ {
		for ch := 0; ch < c; ch++ {
			inBase := (i*c + ch) * h * w
			outBase := (i*c + ch) * outH * outW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					g := grad.Data[outBase+oh*outW+ow] * inv
					for kh := 0; kh < m.K; kh++ {
						for kw := 0; kw < m.K; kw++ {
							dx.Data[inBase+(oh*m.K+kh)*w+(ow*m.K+kw)] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (m *AvgPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *AvgPool2D) OutShape(in []int) []int {
	return []int{in[0], in[1] / m.K, in[2] / m.K}
}

// Stats implements Layer.
func (m *AvgPool2D) Stats(in []int) Stats {
	out := m.OutShape(in)
	return Stats{ActBytes: int64(shapeElems(out)) * 4}
}

// GlobalAvgPool2D reduces [N, C, H, W] to [N, C] by averaging each channel.
type GlobalAvgPool2D struct {
	cachedIn []int
	cachedN  int
}

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Name implements Layer.
func (m *GlobalAvgPool2D) Name() string { return "globalavgpool" }

// Forward averages each channel plane.
func (m *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := batchOf(x, "GlobalAvgPool2D")
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	y := tensor.New(n, c)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[i*c+ch] = s * inv
		}
	}
	if train {
		m.cachedIn = []int{c, h, w}
		m.cachedN = n
	}
	return y
}

// Backward spreads gradients uniformly over each plane.
func (m *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c, h, w := m.cachedIn[0], m.cachedIn[1], m.cachedIn[2]
	dx := tensor.New(m.cachedN, c, h, w)
	inv := 1 / float32(h*w)
	for i := 0; i < m.cachedN; i++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[i*c+ch] * inv
			plane := dx.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for j := range plane {
				plane[j] = g
			}
		}
	}
	return dx
}

// Params implements Layer.
func (m *GlobalAvgPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *GlobalAvgPool2D) OutShape(in []int) []int { return []int{in[0]} }

// Stats implements Layer.
func (m *GlobalAvgPool2D) Stats(in []int) Stats {
	return Stats{ActBytes: int64(in[0]) * 4}
}

// Flatten reshapes [N, C, H, W] (or any batched shape) to [N, F].
type Flatten struct {
	cachedShape []int
}

// NewFlatten constructs a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := batchOf(x, "Flatten")
	if train {
		f.cachedShape = append([]int(nil), x.Shape...)
	}
	return x.Reshape(n, -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.cachedShape == nil {
		panic("nn: Flatten.Backward without Forward(train=true)")
	}
	return grad.Reshape(f.cachedShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int { return []int{shapeElems(in)} }

// Stats implements Layer.
func (f *Flatten) Stats(in []int) Stats { return Stats{} }
