package tensor

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
)

// RNG wraps math/rand with the initializers used across NSHD. All randomness
// in the repository flows through seeded RNGs so every experiment is
// reproducible.
type RNG struct {
	r   *rand.Rand
	src rand.Source
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	src := rand.NewSource(seed)
	return &RNG{r: rand.New(src), src: src}
}

// State fingerprints where g is in its stream without drawing from it: an
// FNV-1a 64 hash of its generator's state. math/rand exports no getter, so
// the state is read by reflection; counting draws instead, through a source
// wrapper, cost a third of every NormFloat64. RNGs of equal State draw the
// same values from then on, and every draw moves it.
func (g *RNG) State() uint64 {
	h := fnv.New64a()
	hashState(h, reflect.ValueOf(g.src))
	return h.Sum64()
}

// hashState hashes the integers v holds, walking its pointers, arrays and
// fields.
func hashState(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
		h.Write(b[:])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.LittleEndian.PutUint64(b[:], v.Uint())
		h.Write(b[:])
	case reflect.Array, reflect.Slice:
		for i := range v.Len() {
			hashState(h, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			hashState(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			hashState(h, v.Elem())
		}
	}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork returns a new RNG seeded from this one, so that independent
// subsystems can draw without interleaving each other's streams.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// FillUniform fills t with uniform samples in [lo, hi).
func (g *RNG) FillUniform(t *Tensor, lo, hi float32) {
	span := float64(hi - lo)
	for i := range t.Data {
		t.Data[i] = lo + float32(g.r.Float64()*span)
	}
}

// FillNormal fills t with N(mean, std²) samples.
func (g *RNG) FillNormal(t *Tensor, mean, std float32) {
	for i := range t.Data {
		t.Data[i] = mean + std*float32(g.r.NormFloat64())
	}
}

// FillBipolar fills t with uniform ±1 samples (the hypervector alphabet).
func (g *RNG) FillBipolar(t *Tensor) {
	for i := range t.Data {
		if g.r.Int63()&1 == 0 {
			t.Data[i] = 1
		} else {
			t.Data[i] = -1
		}
	}
}

// KaimingConv initializes a convolution weight tensor of shape
// [outC, inC, kh, kw] with He-normal scaling appropriate for ReLU networks.
func (g *RNG) KaimingConv(w *Tensor) {
	if w.Rank() != 4 {
		panic("tensor: KaimingConv requires rank-4 weights")
	}
	fanIn := w.Shape[1] * w.Shape[2] * w.Shape[3]
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	g.FillNormal(w, 0, std)
}

// XavierLinear initializes a linear weight tensor of shape [out, in] with
// Glorot-uniform scaling.
func (g *RNG) XavierLinear(w *Tensor) {
	if w.Rank() != 2 {
		panic("tensor: XavierLinear requires rank-2 weights")
	}
	fanIn, fanOut := w.Shape[1], w.Shape[0]
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	g.FillUniform(w, -limit, limit)
}
