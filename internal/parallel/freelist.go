package parallel

import "sync/atomic"

// Freelist recycles up to a fixed number of reusable values — worker arenas,
// prebound Calls with their buffers — through a channel. Values are made
// lazily, on a Get that finds the list empty, until the cap is reached; from
// then on Get is an allocation-free channel receive that may wait for a Put.
// Whatever runs between a Get and its Put must therefore never wait for a
// queued pool task to make progress (such a task may itself be blocked in
// Get): holders fan out with a Call, whose waiter runs only its own tasks,
// never with For.
type Freelist[T any] struct {
	free    chan T
	created atomic.Int64
	newT    func() T
}

// NewFreelist returns a freelist capped at limit values (at least one),
// seeded with any values the caller already has.
func NewFreelist[T any](limit int, newT func() T, seed ...T) *Freelist[T] {
	f := &Freelist[T]{free: make(chan T, max(limit, 1, len(seed))), newT: newT}
	for _, v := range seed {
		f.free <- v
	}
	f.created.Store(int64(len(seed)))
	return f
}

// Get takes a value from the list, making one only while fewer than the cap
// exist.
func (f *Freelist[T]) Get() T {
	select {
	case v := <-f.free:
		return v
	default:
	}
	if f.created.Add(1) <= int64(cap(f.free)) {
		return f.newT()
	}
	f.created.Add(-1)
	return <-f.free
}

// Put returns a value taken with Get.
func (f *Freelist[T]) Put(v T) { f.free <- v }
