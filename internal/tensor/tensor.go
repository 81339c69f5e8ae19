// Package tensor implements dense float32 tensors and the numeric kernels
// (matmul, im2col, reductions, elementwise maps) used by the neural-network
// and hyperdimensional-computing layers of NSHD.
//
// Tensors are row-major with explicit shapes. The package is deliberately
// small: it supports exactly what a CIFAR-scale CNN plus an HD pipeline
// needs, with no views or broadcasting beyond what those callers use.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zeroed tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. One dimension
// may be -1, in which case it is inferred. Panics if the element counts
// disagree.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	known := 1
	infer := -1
	out := append([]int(nil), shape...)
	for i, s := range out {
		if s == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		known *= s
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		out[infer] = len(t.Data) / known
		known *= out[infer]
	}
	if known != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: out, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// Apply replaces each element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Map returns a new tensor whose elements are f applied to t's.
func (t *Tensor) Map(f func(float32) float32) *Tensor {
	c := t.Clone()
	c.Apply(f)
	return c
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elems, mean=%.4g]", t.Shape, len(t.Data), t.Mean())
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t.Data {
		d := float64(v) - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.Data)))
}

// Max returns the maximum element and its flat index.
func (t *Tensor) Max() (float32, int) {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, at := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Min returns the minimum element and its flat index.
func (t *Tensor) Min() (float32, int) {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	best, at := t.Data[0], 0
	for i, v := range t.Data {
		if v < best {
			best, at = v, i
		}
	}
	return best, at
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	_, at := t.Max()
	return at
}

// Row returns row i of a 2-D tensor as a slice aliasing t's data.
func (t *Tensor) Row(i int) []float32 {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.Shape)))
	}
	w := t.Shape[1]
	return t.Data[i*w : (i+1)*w]
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
