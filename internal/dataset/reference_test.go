package dataset

import (
	"fmt"
	"io"
)

// WriteCIFAR10 serializes a dataset into CIFAR-10 binary format for the
// loader's round-trip tests. Pixel values are clamped to [0, 1] and
// quantized to bytes.
func WriteCIFAR10(d *Dataset, w io.Writer) error {
	if d.Classes > 256 {
		return fmt.Errorf("dataset: cannot serialize %d classes in CIFAR-10 format", d.Classes)
	}
	if got := d.SampleShape(); len(got) != 3 || got[0] != 3 || got[1] != 32 || got[2] != 32 {
		return fmt.Errorf("dataset: CIFAR-10 format requires 3x32x32 samples, got %v", got)
	}
	rec := make([]byte, cifar10Record)
	for i := 0; i < d.Len(); i++ {
		rec[0] = byte(d.Labels[i])
		base := i * cifarPixels
		for j := 0; j < cifarPixels; j++ {
			v := d.Images.Data[base+j]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			rec[1+j] = byte(v*255 + 0.5)
		}
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("dataset: write record %d: %w", i, err)
		}
	}
	return nil
}
