package parallel

import (
	"fmt"
	"strings"
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
// workers already running a For fan-out: each waiter runs its own tasks, so
// both levels keep moving.
func TestCallNested(t *testing.T) {
	var total atomic.Int64
	inner := make([]*Call, Workers()+1)
	for i := range inner {
		inner[i] = NewCall(4, func(lo, hi int) { total.Add(1) })
	}
	For(len(inner), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inner[i].Run()
		}
	})
	if got := total.Load(); got != int64(len(inner)*4) {
		t.Fatalf("nested Calls ran %d tasks, want %d", got, len(inner)*4)
	}
}

// seedBlocked queues Workers()+2 help tokens of a Call whose as many tasks
// each wait on gate, and returns once every worker has taken one and blocked:
// two tokens stay queued with tasks still unclaimed, so a waiter that drained
// the queue would claim one and block too. Close the gate, then receive from
// the returned Call's done to leave a clean pool.
func seedBlocked(t *testing.T, gate chan struct{}) *Call {
	n := Workers() + 2
	taken := make(chan struct{}, n)
	b := NewCall(n, func(int, int) {
		taken <- struct{}{}
		<-gate
	})
	b.k = n
	b.left.Store(int64(n))
	b.next.Store(int64(-n))
	for i := 0; i < n; i++ {
		b.queued.Add(1)
		tasks <- b
	}
	for i := 0; i < Workers(); i++ {
		select {
		case <-taken:
		case <-time.After(10 * time.Second):
			close(gate)
			t.Fatal("the pool's workers did not take the seeded tasks")
		}
	}
	return b
}

// waitOrFail runs fn under a watchdog: the waiter that runs a foreign queued
// task blocks on the gate, and the test fails instead of hanging.
func waitOrFail(t *testing.T, gate chan struct{}, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatalf("%s ran a foreign queued task while waiting and blocked on it", what)
	}
}

// TestCallWaiterRunsOnlyItsOwnTasks pins the property the serving engine
// relies on: while Run waits it must not start foreign queued tasks, because
// the caller may hold a resource those tasks block on.
func TestCallWaiterRunsOnlyItsOwnTasks(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single worker: Run is inline")
	}
	gate := make(chan struct{})
	blocked := seedBlocked(t, gate)
	var ran atomic.Int64
	c := NewCall(4, func(lo, hi int) { ran.Add(1) })
	waitOrFail(t, gate, "Call.Run", c.Run)
	if got := ran.Load(); got != 4 {
		t.Fatalf("Call ran %d of its 4 tasks", got)
	}
	close(gate)
	<-blocked.done
}

// TestCallStaleTokensStayBounded: while every worker is busy, a Call's Runs
// finish on the caller and leave their help tokens queued. A later Run counts
// those as its own help instead of queuing more, so one Call never holds
// more than Workers() slots of the queue, and other fan-outs still find room
// for theirs.
func TestCallStaleTokensStayBounded(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single worker: Run is inline")
	}
	gate := make(chan struct{})
	blocked := seedBlocked(t, gate)
	c := NewCall(2*Workers(), func(lo, hi int) {})
	for r := 0; r < 10*cap(tasks); r++ {
		c.Run()
	}
	// The seeded tokens the blocked workers have not taken, plus c's.
	if got, limit := len(tasks), 2+Workers(); got > limit {
		t.Errorf("%d help tokens queued after repeated Runs, want at most %d", got, limit)
	}
	close(gate)
	<-blocked.done
}

// TestForWaiterRunsOnlyItsOwnTasks is the same property for For, which runs
// on a pooled Call: its waiter claims only its own chunks.
func TestForWaiterRunsOnlyItsOwnTasks(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single worker: For is inline")
	}
	gate := make(chan struct{})
	blocked := seedBlocked(t, gate)
	const n = 64
	var items atomic.Int64
	waitOrFail(t, gate, "For", func() {
		For(n, 1, func(lo, hi int) { items.Add(int64(hi - lo)) })
	})
	if got := items.Load(); got != n {
		t.Fatalf("For covered %d of its %d items", got, n)
	}
	close(gate)
	<-blocked.done
}

// TestForPanicOnHelperReachesCaller: every chunk of a For panics, and the
// first waits until a second has started, so at least one panics on a pool
// helper. The process survives, For panics on its caller with one chunk's
// value once every chunk has run, and the pool serves the next For.
func TestForPanicOnHelperReachesCaller(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single worker: For is inline and a panic unwinds the caller directly")
	}
	const n = 8
	for round := 0; round < 20; round++ {
		var started, ran atomic.Int64
		both := make(chan struct{})
		got := func() (r any) {
			defer func() { r = recover() }()
			For(n, 1, func(lo, hi int) {
				switch started.Add(1) {
				case 1: // the second chunk starts on another goroutine
					select {
					case <-both:
					case <-time.After(10 * time.Second):
					}
				case 2:
					close(both)
				}
				ran.Add(int64(hi - lo))
				panic(fmt.Sprintf("chunk %d failed", lo))
			})
			return nil
		}()
		if s, ok := got.(string); !ok || !strings.HasPrefix(s, "chunk ") {
			t.Fatalf("round %d: For panicked with %v, want a chunk's value", round, got)
		}
		if r := ran.Load(); r != n {
			t.Fatalf("round %d: For returned after %d of %d chunks", round, r, n)
		}
		var items atomic.Int64
		For(n, 1, func(lo, hi int) { items.Add(int64(hi - lo)) })
		if r := items.Load(); r != n {
			t.Fatalf("round %d: the For after a panic covered %d of %d items", round, r, n)
		}
	}
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
