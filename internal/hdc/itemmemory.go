package hdc

import (
	"sort"

	"nshd/internal/tensor"
)

// ItemMemory is an associative memory of named hypervectors with
// similarity-based cleanup, the classic HD structure for symbol lookup.
type ItemMemory struct {
	D     int
	names []string
	hvs   map[string]Hypervector
	rng   *tensor.RNG
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
	im.names = append(im.names, name)
	sort.Strings(im.names)
	return h
}

// Has reports whether name is stored.
func (im *ItemMemory) Has(name string) bool {
	_, ok := im.hvs[name]
	return ok
}

// Len returns the number of stored items.
func (im *ItemMemory) Len() int { return len(im.hvs) }

// Names returns the stored names in sorted order.
func (im *ItemMemory) Names() []string { return append([]string(nil), im.names...) }

// Cleanup returns the stored name whose hypervector is most similar to q
// (dot product) along with the similarity. It panics on an empty memory.
func (im *ItemMemory) Cleanup(q Hypervector) (string, float64) {
	if len(im.hvs) == 0 {
		panic("hdc: Cleanup on empty ItemMemory")
	}
	bestName := ""
	bestSim := 0.0
	first := true
	for _, name := range im.names {
		sim := Dot(im.hvs[name], q)
		if first || sim > bestSim {
			bestName, bestSim, first = name, sim, false
		}
	}
	return bestName, bestSim
}
