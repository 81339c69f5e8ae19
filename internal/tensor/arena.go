package tensor

import "fmt"

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
// Mark/Release give stack discipline for transient scratch (e.g. an im2col
// matrix that dies with its layer) while activations allocated before the
// mark survive. Reset recycles the whole arena between batches.
//
// Returned buffers are NOT zeroed: every serving kernel fully overwrites its
// output, and skipping the clear saves a memory pass per layer.
//
// An Arena is owned by one goroutine at a time; the engine keeps one arena
// per concurrent worker.
type Arena struct {
	frozen bool

	floats []float32
	foff   int
	fpeak  int

	words []uint64
	woff  int
	wpeak int

	ints  []int
	ioff  int
	ipeak int

	hdrs  []Tensor
	hoff  int
	hpeak int

	i32s    []int32
	i32off  int
	i32peak int

	f64s    []float64
	f64off  int
	f64peak int
}

// NewArena returns an empty arena in measuring mode.
func NewArena() *Arena { return &Arena{} }

// ArenaMark is a snapshot of all slab offsets, for stack-style release.
type ArenaMark struct{ f, w, i, h, i32, f64 int }

// Mark snapshots the arena's current offsets.
func (a *Arena) Mark() ArenaMark {
	return ArenaMark{f: a.foff, w: a.woff, i: a.ioff, h: a.hoff, i32: a.i32off, f64: a.f64off}
}

// Release rewinds the arena to a previous Mark, freeing everything allocated
// since. Buffers handed out after the mark must no longer be used.
func (a *Arena) Release(m ArenaMark) {
	a.foff, a.woff, a.ioff, a.hoff = m.f, m.w, m.i, m.h
	a.i32off, a.f64off = m.i32, m.f64
}

// Reset frees everything, keeping capacity. Call between batches.
func (a *Arena) Reset() {
	a.foff, a.woff, a.ioff, a.hoff = 0, 0, 0, 0
	a.i32off, a.f64off = 0, 0
}

// Floats returns an uninitialized float32 buffer of length n.
func (a *Arena) Floats(n int) []float32 {
	if a.foff+n > len(a.floats) {
		if a.frozen {
			panic(fmt.Sprintf("tensor: frozen arena float slab exhausted (%d + %d > %d)", a.foff, n, len(a.floats)))
		}
		a.foff += n
		if a.foff > a.fpeak {
			a.fpeak = a.foff
		}
		return make([]float32, n)
	}
	s := a.floats[a.foff : a.foff+n : a.foff+n]
	a.foff += n
	if a.foff > a.fpeak {
		a.fpeak = a.foff
	}
	return s
}

// Words returns an uninitialized uint64 buffer of length n (packed queries).
func (a *Arena) Words(n int) []uint64 {
	if a.woff+n > len(a.words) {
		if a.frozen {
			panic(fmt.Sprintf("tensor: frozen arena word slab exhausted (%d + %d > %d)", a.woff, n, len(a.words)))
		}
		a.woff += n
		if a.woff > a.wpeak {
			a.wpeak = a.woff
		}
		return make([]uint64, n)
	}
	s := a.words[a.woff : a.woff+n : a.woff+n]
	a.woff += n
	if a.woff > a.wpeak {
		a.wpeak = a.woff
	}
	return s
}

// Int32s returns an uninitialized int32 buffer of length n (the word scorers'
// integer class dots in the engine's tail).
func (a *Arena) Int32s(n int) []int32 {
	if a.i32off+n > len(a.i32s) {
		if a.frozen {
			panic(fmt.Sprintf("tensor: frozen arena int32 slab exhausted (%d + %d > %d)", a.i32off, n, len(a.i32s)))
		}
		a.i32off += n
		if a.i32off > a.i32peak {
			a.i32peak = a.i32off
		}
		return make([]int32, n)
	}
	s := a.i32s[a.i32off : a.i32off+n : a.i32off+n]
	a.i32off += n
	if a.i32off > a.i32peak {
		a.i32peak = a.i32off
	}
	return s
}

// Float64s returns an uninitialized float64 buffer of length n (blockwise
// similarity-score accumulators in the engine's fused tail).
func (a *Arena) Float64s(n int) []float64 {
	if a.f64off+n > len(a.f64s) {
		if a.frozen {
			panic(fmt.Sprintf("tensor: frozen arena float64 slab exhausted (%d + %d > %d)", a.f64off, n, len(a.f64s)))
		}
		a.f64off += n
		if a.f64off > a.f64peak {
			a.f64peak = a.f64off
		}
		return make([]float64, n)
	}
	s := a.f64s[a.f64off : a.f64off+n : a.f64off+n]
	a.f64off += n
	if a.f64off > a.f64peak {
		a.f64peak = a.f64off
	}
	return s
}

// header returns a tensor header with the given shape copied into the
// arena's shape slab.
func (a *Arena) header(shape []int) *Tensor {
	var t *Tensor
	if a.hoff < len(a.hdrs) {
		t = &a.hdrs[a.hoff]
	} else if a.frozen {
		panic("tensor: frozen arena header slab exhausted")
	} else {
		t = &Tensor{}
	}
	a.hoff++
	if a.hoff > a.hpeak {
		a.hpeak = a.hoff
	}

	var dst []int
	if a.ioff+len(shape) > len(a.ints) {
		if a.frozen {
			panic("tensor: frozen arena shape slab exhausted")
		}
		a.ioff += len(shape)
		if a.ioff > a.ipeak {
			a.ipeak = a.ioff
		}
		dst = make([]int, len(shape))
	} else {
		dst = a.ints[a.ioff : a.ioff+len(shape) : a.ioff+len(shape)]
		a.ioff += len(shape)
		if a.ioff > a.ipeak {
			a.ipeak = a.ioff
		}
	}
	copy(dst, shape)
	t.Shape = dst
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

// Freeze sizes the slabs to the observed peaks and switches the arena to
// frozen (zero-allocation) mode. The arena is Reset as a side effect.
func (a *Arena) Freeze() {
	a.floats = make([]float32, a.fpeak)
	a.words = make([]uint64, a.wpeak)
	a.ints = make([]int, a.ipeak)
	a.hdrs = make([]Tensor, a.hpeak)
	a.i32s = make([]int32, a.i32peak)
	a.f64s = make([]float64, a.f64peak)
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
	if a.fpeak > len(a.floats) {
		a.floats = make([]float32, a.fpeak)
	}
	if a.wpeak > len(a.words) {
		a.words = make([]uint64, a.wpeak)
	}
	if a.ipeak > len(a.ints) {
		a.ints = make([]int, a.ipeak)
	}
	if a.hpeak > len(a.hdrs) {
		a.hdrs = make([]Tensor, a.hpeak)
	}
	if a.i32peak > len(a.i32s) {
		a.i32s = make([]int32, a.i32peak)
	}
	if a.f64peak > len(a.f64s) {
		a.f64s = make([]float64, a.f64peak)
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
	c := &Arena{
		frozen: true,
		floats: make([]float32, len(a.floats)),
		words:  make([]uint64, len(a.words)),
		ints:   make([]int, len(a.ints)),
		hdrs:   make([]Tensor, len(a.hdrs)),
		i32s:   make([]int32, len(a.i32s)),
		f64s:   make([]float64, len(a.f64s)),
		fpeak:  a.fpeak, wpeak: a.wpeak, ipeak: a.ipeak, hpeak: a.hpeak,
		i32peak: a.i32peak, f64peak: a.f64peak,
	}
	return c
}

// FootprintBytes reports the frozen arena's slab memory (rough, for logs and
// chunk-size budgeting).
func (a *Arena) FootprintBytes() int64 {
	return int64(a.fpeak)*4 + int64(a.wpeak)*8 + int64(a.ipeak)*8 + int64(a.hpeak)*48 +
		int64(a.i32peak)*4 + int64(a.f64peak)*8
}

// PeakFloats reports the peak float32 usage observed so far (valid in both
// modes); the engine uses it to budget its chunk size.
func (a *Arena) PeakFloats() int { return a.fpeak }
