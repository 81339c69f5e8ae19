package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestCallRunsAllTasks checks a Call executes every task exactly once per
// Run, across repeated reuse of the same Call.
func TestCallRunsAllTasks(t *testing.T) {
	const n = 23
	var hits [n]atomic.Int64
	c := NewCall(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	const runs = 50
	for r := 0; r < runs; r++ {
		c.Run()
	}
	for i := range hits {
		if got := hits[i].Load(); got != runs {
			t.Fatalf("task %d ran %d times, want %d", i, got, runs)
		}
	}
}

// TestCallZeroAlloc pins Run's steady-state allocation count at zero.
func TestCallZeroAlloc(t *testing.T) {
	var sum atomic.Int64
	c := NewCall(8, func(lo, hi int) { sum.Add(int64(lo)) })
	c.Run()
	if a := testing.AllocsPerRun(100, c.Run); a != 0 {
		t.Fatalf("Call.Run allocated %.1f times per run", a)
	}
}

// TestCallNested checks Calls still complete when issued from inside pool
// workers already running a ForGrain fan-out (help-draining must keep both
// levels moving).
func TestCallNested(t *testing.T) {
	var total atomic.Int64
	inner := make([]*Call, Workers()+1)
	for i := range inner {
		inner[i] = NewCall(4, func(lo, hi int) { total.Add(1) })
	}
	ForGrain(len(inner), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inner[i].Run()
		}
	})
	if got := total.Load(); got != int64(len(inner)*4) {
		t.Fatalf("nested Calls ran %d tasks, want %d", got, len(inner)*4)
	}
}

// TestCallWaiterRunsOnlyItsOwnTasks pins the property the serving engine
// relies on: while Run waits it must not start foreign queued tasks, because
// the caller may hold a resource those tasks block on. The queue is seeded
// with more blocking tasks than the pool has workers, each waiting on a gate
// only the test opens after Run returns; a help-draining waiter (what Run did
// before, and what ForGrain's waiter still does) picks one up and never comes
// back.
func TestCallWaiterRunsOnlyItsOwnTasks(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single worker: Run is inline")
	}
	gate := make(chan struct{})
	var blocked callState
	blocked.finished = make(chan struct{}, 1)
	nBlock := Workers() + 2
	blocked.remaining.Store(int64(nBlock))
	for i := 0; i < nBlock; i++ {
		tasks <- task{kernel: func(int, int) { <-gate }, call: &blocked}
	}

	var ran atomic.Int64
	c := NewCall(4, func(lo, hi int) { ran.Add(1) })
	done := make(chan struct{})
	go func() {
		c.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("Call.Run ran a foreign queued task while waiting and blocked on it")
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("Call ran %d of its 4 tasks", got)
	}
	close(gate)
	<-blocked.finished // drain the seeded tasks so later tests see a clean pool
}

// TestCallRunNVariesWidth checks RunN runs exactly tasks [0, k) whatever the
// width of the Run before it — wider, narrower, beyond the count the Call was
// built with — since a helper left over from one Run may wake during the next.
func TestCallRunNVariesWidth(t *testing.T) {
	const maxK = 37
	var hits [maxK]atomic.Int64
	c := NewCall(4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	var want [maxK]int64
	for r := 0; r < 400; r++ {
		k := (r * 7) % (maxK + 1)
		c.RunN(k)
		for i := 0; i < k; i++ {
			want[i]++
		}
	}
	for i := range hits {
		if got := hits[i].Load(); got != want[i] {
			t.Fatalf("task %d ran %d times, want %d", i, got, want[i])
		}
	}
	if a := testing.AllocsPerRun(100, func() { c.RunN(3) }); a != 0 {
		t.Fatalf("Call.RunN allocated %.1f times per run", a)
	}
}

// TestFreelistCapsAndRecycles checks a Freelist makes values only up to its
// cap (seeds included), hands the seed out first, and recycles afterwards,
// with concurrent getters blocking rather than over-allocating.
func TestFreelistCapsAndRecycles(t *testing.T) {
	var made atomic.Int64
	seed := new(int)
	f := NewFreelist(3, func() *int { made.Add(1); return new(int) }, seed)
	if got := f.Get(); got != seed {
		t.Fatal("first Get did not return the seeded value")
	}
	f.Put(seed)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				v := f.Get()
				*v++ // exclusive while held: the race detector checks it
				f.Put(v)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := made.Load(); got > 2 {
		t.Fatalf("freelist capped at 3 with one seed made %d values", got)
	}
}

// TestCallPanicPropagates: a task that panics — on a pool helper or on the
// caller — does not kill the process; RunN waits for every other task, then
// panics on its caller's goroutine with the task's value, and the Call runs
// cleanly afterwards (no stale completion token ends a later Run early).
func TestCallPanicPropagates(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single worker: tasks run inline and a panic unwinds the caller directly")
	}
	const k = 8
	var ran atomic.Int64
	bad := int64(-1)
	var badTask atomic.Int64
	badTask.Store(bad)
	c := NewCall(k, func(lo, hi int) {
		time.Sleep(100 * time.Microsecond) // keep tasks in flight on both goroutines
		ran.Add(1)
		if int64(lo) == badTask.Load() {
			panic(fmt.Sprintf("task %d failed", lo))
		}
	})
	for round := 0; round < 40; round++ {
		ran.Store(0)
		badTask.Store(int64(round % k)) // the panicking task lands on the helper and on the caller
		got := func() (r any) {
			defer func() { r = recover() }()
			c.Run()
			return nil
		}()
		if want := fmt.Sprintf("task %d failed", round%k); got != want {
			t.Fatalf("round %d: Run panicked with %v, want %q", round, got, want)
		}
		if n := ran.Load(); n != k {
			t.Fatalf("round %d: Run returned after %d of %d tasks", round, n, k)
		}
		badTask.Store(bad)
		ran.Store(0)
		c.Run()
		if n := ran.Load(); n != k {
			t.Fatalf("round %d: the clean Run after a panic returned after %d of %d tasks", round, n, k)
		}
	}
}
