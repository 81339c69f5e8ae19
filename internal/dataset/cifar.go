package dataset

import (
	"fmt"
	"os"

	"nshd/internal/tensor"
)

// CIFAR binary record layout: CIFAR-10 records are 1 label byte + 3072 pixel
// bytes; CIFAR-100 records carry a coarse and a fine label byte before the
// pixels. Pixels are channel-major (R plane, G plane, B plane), row-major
// within a plane — identical to our [C, H, W] layout.
const (
	cifarPixels    = 3 * 32 * 32
	cifar10Record  = 1 + cifarPixels
	cifar100Record = 2 + cifarPixels
)

// LoadCIFAR10 reads one or more CIFAR-10 binary batch files (data_batch_*.bin
// / test_batch.bin) and returns them as a single dataset with pixel values
// scaled to [0, 1].
func LoadCIFAR10(paths ...string) (*Dataset, error) {
	return loadCIFAR("cifar10", 10, cifar10Record, 0, paths)
}

// LoadCIFAR100 reads CIFAR-100 binary files (train.bin / test.bin) using the
// fine label.
func LoadCIFAR100(paths ...string) (*Dataset, error) {
	return loadCIFAR("cifar100", 100, cifar100Record, 1, paths)
}

func loadCIFAR(name string, classes, recordLen, labelOffset int, paths []string) (*Dataset, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dataset: no %s files given", name)
	}
	var raw []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("dataset: read %s: %w", p, err)
		}
		raw = append(raw, b...)
	}
	if len(raw)%recordLen != 0 {
		return nil, fmt.Errorf("dataset: %s data length %d not a multiple of record size %d", name, len(raw), recordLen)
	}
	n := len(raw) / recordLen
	if n == 0 {
		return nil, fmt.Errorf("dataset: %s files contain no records", name)
	}
	images := tensor.New(n, 3, 32, 32)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		rec := raw[i*recordLen : (i+1)*recordLen]
		y := int(rec[labelOffset])
		if y >= classes {
			return nil, fmt.Errorf("dataset: %s record %d has label %d >= %d", name, i, y, classes)
		}
		labels[i] = y
		pixels := rec[recordLen-cifarPixels:]
		base := i * cifarPixels
		for j, b := range pixels {
			images.Data[base+j] = float32(b) / 255
		}
	}
	d := &Dataset{Name: name, Images: images, Labels: labels, Classes: classes}
	return d, d.Validate()
}
