// Package dataset provides the image classification workloads NSHD is
// evaluated on. The paper uses CIFAR-10/CIFAR-100; offline reproduction uses
// SynthCIFAR, a seeded generative dataset with the same tensor geometry
// (3×32×32, 10 or 100 classes) whose class structure is learnable by a CNN
// but not by linear models on raw pixels. A loader for the real CIFAR binary
// format is included for runs where the data is available on disk.
package dataset

import (
	"fmt"
	"math"

	"nshd/internal/tensor"
)

// Dataset is a labelled image set with images in [N, C, H, W] layout.
type Dataset struct {
	Name    string
	Images  *tensor.Tensor
	Labels  []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.Images.Shape[0] }

// SampleShape returns the per-sample shape [C, H, W].
func (d *Dataset) SampleShape() []int { return d.Images.Shape[1:] }

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.Images.Rank() != 4 {
		return fmt.Errorf("dataset %s: images rank %d, want 4", d.Name, d.Images.Rank())
	}
	if d.Images.Shape[0] != len(d.Labels) {
		return fmt.Errorf("dataset %s: %d images but %d labels", d.Name, d.Images.Shape[0], len(d.Labels))
	}
	for i, y := range d.Labels {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("dataset %s: label[%d]=%d outside [0,%d)", d.Name, i, y, d.Classes)
		}
	}
	return nil
}

// Subset returns the first n samples (sharing storage); useful for scaling
// experiments down.
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	sampleLen := tensorSampleLen(d.Images)
	return &Dataset{
		Name:    fmt.Sprintf("%s[:%d]", d.Name, n),
		Images:  tensor.FromSlice(d.Images.Data[:n*sampleLen], append([]int{n}, d.Images.Shape[1:]...)...),
		Labels:  d.Labels[:n],
		Classes: d.Classes,
	}
}

// Shuffled returns a copy of the dataset in a seeded random order.
func (d *Dataset) Shuffled(rng *tensor.RNG) *Dataset {
	n := d.Len()
	sampleLen := tensorSampleLen(d.Images)
	perm := rng.Perm(n)
	images := tensor.New(d.Images.Shape...)
	labels := make([]int, n)
	for dst, src := range perm {
		copy(images.Data[dst*sampleLen:(dst+1)*sampleLen], d.Images.Data[src*sampleLen:(src+1)*sampleLen])
		labels[dst] = d.Labels[src]
	}
	return &Dataset{Name: d.Name, Images: images, Labels: labels, Classes: d.Classes}
}

// Normalize shifts and scales every channel to zero mean / unit variance
// in place, returning the per-channel means and stds applied.
func (d *Dataset) Normalize() (means, stds []float64) {
	c := d.Images.Shape[1]
	hw := d.Images.Shape[2] * d.Images.Shape[3]
	n := d.Len()
	means = make([]float64, c)
	stds = make([]float64, c)
	for ch := 0; ch < c; ch++ {
		var s, sq float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * hw
			for j := 0; j < hw; j++ {
				v := float64(d.Images.Data[base+j])
				s += v
				sq += v * v
			}
		}
		cnt := float64(n * hw)
		mean := s / cnt
		variance := sq/cnt - mean*mean
		if variance < 1e-12 {
			variance = 1e-12
		}
		std := math.Sqrt(variance)
		means[ch], stds[ch] = mean, std
		for i := 0; i < n; i++ {
			base := (i*c + ch) * hw
			for j := 0; j < hw; j++ {
				d.Images.Data[base+j] = float32((float64(d.Images.Data[base+j]) - mean) / std)
			}
		}
	}
	return means, stds
}

// ApplyNormalization applies externally computed channel statistics (from
// the training split) to this dataset.
func (d *Dataset) ApplyNormalization(means, stds []float64) {
	c := d.Images.Shape[1]
	hw := d.Images.Shape[2] * d.Images.Shape[3]
	for ch := 0; ch < c; ch++ {
		for i := 0; i < d.Len(); i++ {
			base := (i*c + ch) * hw
			for j := 0; j < hw; j++ {
				d.Images.Data[base+j] = float32((float64(d.Images.Data[base+j]) - means[ch]) / stds[ch])
			}
		}
	}
}

func tensorSampleLen(t *tensor.Tensor) int {
	return t.Len() / t.Shape[0]
}

// ShiftAugment returns a training-time augmentation that translates a
// [C, H, W] sample by up to maxShift pixels in each direction, zero-filling
// the exposed border. Translation is the natural invariance of image
// workloads and multiplies the effective sample count of small splits.
func ShiftAugment(maxShift int) func(sample []float32, shape []int, rng *tensor.RNG) {
	return func(sample []float32, shape []int, rng *tensor.RNG) {
		if len(shape) != 3 || maxShift <= 0 {
			return
		}
		c, h, w := shape[0], shape[1], shape[2]
		dx := rng.Intn(2*maxShift+1) - maxShift
		dy := rng.Intn(2*maxShift+1) - maxShift
		if dx == 0 && dy == 0 {
			return
		}
		shiftPlanes(sample, c, h, w, dx, dy)
	}
}

// shiftPlanes moves each of the c h×w planes of x by dx columns and dy rows in place:
// pixel (y, x) takes the value at (y−dy, x−dx), or +0 where that lies
// outside the plane. Rows move whole, by copy and clear, walked bottom-up
// when dy > 0 so that each source row is read before it is overwritten; a row
// that shifts within itself (dy = 0) relies on copy's overlap rule.
func shiftPlanes(x []float32, c, h, w, dx, dy int) {
	for ch := 0; ch < c; ch++ {
		plane := x[ch*h*w:][:h*w]
		for i := 0; i < h; i++ {
			y := i
			if dy > 0 {
				y = h - 1 - i
			}
			row, sy := plane[y*w:][:w], y-dy
			switch {
			case sy < 0 || sy >= h || dx >= w || -dx >= w:
				clear(row)
			case dx >= 0:
				copy(row[dx:], plane[sy*w:][:w-dx])
				clear(row[:dx])
			default:
				copy(row[:w+dx], plane[sy*w-dx:][:w+dx])
				clear(row[w+dx:])
			}
		}
	}
}
