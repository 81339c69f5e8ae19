package tensor

import (
	"fmt"
	"unsafe"
)

// Arena is a region (bump) allocator backing the serving engine's
// allocation-free forward pass. Activations, scratch buffers, packed-query
// words and tensor headers are all carved out of preallocated slabs; a
// steady-state inference batch therefore performs zero heap allocations.
//
// An arena has two modes:
//
//   - measuring (fresh from NewArena): every allocation is satisfied with a
//     plain make() while high-water marks record the peak simultaneous usage
//     of each slab. The engine compiles by running one warmup batch through
//     a measuring arena.
//   - frozen (after Freeze): the slabs are sized to the recorded peaks and
//     allocations bump offsets into them. Exceeding a frozen slab panics —
//     it means the warmup did not cover the steady-state shape, which is an
//     engine sizing bug, not a runtime condition.
//
// Mark/Release give stack discipline for transient scratch (e.g. a conv's
// GEMM scratch that dies with its layer) while activations allocated before
// the mark survive. Reset recycles the whole arena between batches.
//
// Returned buffers are NOT zeroed: every serving kernel fully overwrites its
// output, and skipping the clear saves a memory pass per layer.
//
// An Arena is owned by one goroutine at a time; the engine keeps one arena
// per concurrent worker.
type Arena struct {
	frozen bool
	floats slab[float32]
	words  slab[uint64]
	ints   slab[int] // tensor shapes
	hdrs   slab[Tensor]
	i32s   slab[int32]
	f64s   slab[float64]
}

// slab is one element type's bump region: buf is the frozen or grown
// capacity, off the next free element, peak the high-water mark of off.
type slab[T any] struct {
	buf       []T
	off, peak int
}

// take returns n uninitialized elements of buf and bumps the offset; a demand
// past buf panics when frozen and is met from the heap while measuring.
func (s *slab[T]) take(n int, frozen bool, kind string) []T {
	end := s.off + n
	var r []T
	switch {
	case end <= len(s.buf):
		r = s.buf[s.off:end:end]
	case frozen:
		panic(fmt.Sprintf("tensor: frozen arena %s slab exhausted (%d + %d > %d)", kind, s.off, n, len(s.buf)))
	default:
		r = make([]T, n)
	}
	s.off = end
	if end > s.peak { // never true when frozen: CloneEmpty reads peak unlocked
		s.peak = end
	}
	return r
}

// grow reallocates buf at the peak when the peak outgrew it.
func (s *slab[T]) grow() {
	if s.peak > len(s.buf) {
		s.buf = make([]T, s.peak)
	}
}

// fresh is an empty slab of s's capacity and peak, sharing no memory with s.
func (s *slab[T]) fresh() slab[T] { return slab[T]{buf: make([]T, len(s.buf)), peak: s.peak} }

// bytes is the slab's footprint at its peak.
func (s *slab[T]) bytes() int64 { return int64(s.peak) * int64(unsafe.Sizeof(*new(T))) }

// sizer is what Freeze, Grow, CloneEmpty and FootprintBytes ask of a slab.
type sizer interface {
	grow()
	bytes() int64
}

func (a *Arena) slabs() [6]sizer {
	return [6]sizer{&a.floats, &a.words, &a.ints, &a.hdrs, &a.i32s, &a.f64s}
}

// NewArena returns an empty arena in measuring mode.
func NewArena() *Arena { return &Arena{} }

// ArenaMark is a snapshot of all slab offsets, for stack-style release.
type ArenaMark struct{ f, w, i, h, i32, f64 int }

// Mark snapshots the arena's current offsets.
func (a *Arena) Mark() ArenaMark {
	return ArenaMark{a.floats.off, a.words.off, a.ints.off, a.hdrs.off, a.i32s.off, a.f64s.off}
}

// Release rewinds the arena to a previous Mark, freeing everything allocated
// since. Buffers handed out after the mark must no longer be used.
func (a *Arena) Release(m ArenaMark) {
	a.floats.off, a.words.off, a.ints.off, a.hdrs.off = m.f, m.w, m.i, m.h
	a.i32s.off, a.f64s.off = m.i32, m.f64
}

// Reset frees everything, keeping capacity. Call between batches.
func (a *Arena) Reset() { a.Release(ArenaMark{}) }

// Floats returns an uninitialized float32 buffer of length n.
func (a *Arena) Floats(n int) []float32 { return a.floats.take(n, a.frozen, "float") }

// Words returns an uninitialized uint64 buffer of length n (packed queries).
func (a *Arena) Words(n int) []uint64 { return a.words.take(n, a.frozen, "word") }

// Int32s returns an uninitialized int32 buffer of length n (the word scorers'
// integer class dots in the engine's tail).
func (a *Arena) Int32s(n int) []int32 { return a.i32s.take(n, a.frozen, "int32") }

// Float64s returns an uninitialized float64 buffer of length n (blockwise
// similarity-score accumulators in the engine's fused tail).
func (a *Arena) Float64s(n int) []float64 { return a.f64s.take(n, a.frozen, "float64") }

// header returns a tensor header with the given shape copied into the
// arena's shape slab.
func (a *Arena) header(shape []int) *Tensor {
	t := &a.hdrs.take(1, a.frozen, "header")[0]
	t.Shape = a.ints.take(len(shape), a.frozen, "shape")
	copy(t.Shape, shape)
	return t
}

// Alloc returns an arena-backed tensor of the given shape with
// UNINITIALIZED contents: the caller must overwrite every element.
//
// The panic messages below deliberately do not mention shape: passing the
// variadic slice to fmt would make it escape and cost one heap allocation
// per call even on the happy path.
func (a *Arena) Alloc(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic("tensor: negative dimension in arena Alloc")
		}
		n *= s
	}
	t := a.header(shape)
	t.Data = a.Floats(n)
	return t
}

// Wrap returns an arena-backed tensor header viewing existing data (no
// copy). The element count must match the shape, as in FromSlice.
func (a *Arena) Wrap(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic("tensor: arena Wrap length does not match shape")
	}
	t := a.header(shape)
	t.Data = data
	return t
}

// Freeze sizes the slabs to the observed peaks, as Grow does, and switches the
// arena to frozen (zero-allocation) mode. The arena is Reset as a side effect.
func (a *Arena) Freeze() {
	if !a.frozen {
		a.Grow()
	}
	a.frozen = true
	a.Reset()
}

// Grow sizes the slabs to the observed peaks WITHOUT freezing: future
// allocations that fit are served from the slabs, while larger demands fall
// back to the heap and raise the recorded peaks (call Grow again to absorb
// them). This is the training-side mode — a Fit loop measures its first step,
// grows once, and every later step reuses the slabs allocation-free — whereas
// serving uses Freeze for a hard zero-allocation guarantee. The arena is
// Reset as a side effect; outstanding buffers must no longer be in use.
func (a *Arena) Grow() {
	if a.frozen {
		panic("tensor: Grow of frozen arena")
	}
	for _, s := range a.slabs() {
		s.grow()
	}
	a.Reset()
}

// CloneEmpty returns a fresh frozen arena with the same slab capacities.
// Only valid on a frozen arena; used to stamp out one arena per worker after
// a single measuring warmup.
func (a *Arena) CloneEmpty() *Arena {
	if !a.frozen {
		panic("tensor: CloneEmpty of unfrozen arena")
	}
	return &Arena{frozen: true, floats: a.floats.fresh(), words: a.words.fresh(), ints: a.ints.fresh(),
		hdrs: a.hdrs.fresh(), i32s: a.i32s.fresh(), f64s: a.f64s.fresh()}
}

// FootprintBytes reports the slab memory at the observed peaks: a frozen
// arena's size, which Compile budgets its chunk size with.
func (a *Arena) FootprintBytes() int64 {
	var n int64
	for _, s := range a.slabs() {
		n += s.bytes()
	}
	return n
}

// PeakFloats reports the peak float32 usage so far, in either mode.
func (a *Arena) PeakFloats() int { return a.floats.peak }

// PeakInt32s reports the peak int32 usage so far, in either mode.
func (a *Arena) PeakInt32s() int { return a.i32s.peak }
