package hdc

import "nshd/internal/tensor"

// ItemMemory maps symbol names to random hypervectors, the classic HD
// codebook for symbol lookup.
type ItemMemory struct {
	D   int
	hvs map[string]Hypervector
	rng *tensor.RNG
}

// NewItemMemory constructs an empty item memory of dimension d.
func NewItemMemory(rng *tensor.RNG, d int) *ItemMemory {
	return &ItemMemory{D: d, hvs: make(map[string]Hypervector), rng: rng}
}

// Get returns the hypervector for name, sampling and remembering a fresh
// random bipolar hypervector on first use.
func (im *ItemMemory) Get(name string) Hypervector {
	if h, ok := im.hvs[name]; ok {
		return h
	}
	h := RandomBipolar(im.rng, im.D)
	im.hvs[name] = h
	return h
}
