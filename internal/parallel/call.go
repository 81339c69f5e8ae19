package parallel

import "sync/atomic"

// Call is a reusable fan-out of a fixed set of tasks over a prebound kernel.
// Where ForGrain allocates a fresh callState per invocation, a Call is built
// once (at engine compile time) and its Run method costs only channel
// operations — no allocation — which keeps per-sample tile dispatch inside
// the serving engine's zero-alloc envelope.
//
// Run blocks until every task has completed. Tasks are claimed from a
// counter: Run offers the pool one help token per task and then claims tasks
// itself until none are left, so it never depends on a pool worker being
// free, and — unlike ForGrain's waiter — it never runs another call's work
// while it waits. That matters to callers that hold a resource across Run
// (the serving engine holds a worker arena): a waiter that drained the shared
// queue could start a queued task that blocks on that very resource, on top
// of the stack that holds it. After claiming, Run waits only for helpers that
// are already executing one of its tasks.
//
// A Call is reusable but NOT reentrant: concurrent Runs of the same Call race
// on its completion state. Callers that need concurrency hold one Call per
// concurrent execution (the fused blocks keep them in a freelist alongside
// their tile buffers).
type Call struct {
	n      int
	kernel func(lo, hi int)
	next   atomic.Int64  // next unclaimed task index; >= n when none are left
	left   atomic.Int64  // tasks of the current Run not yet completed
	done   chan struct{} // capacity 1: one token when left reaches zero
	help   task          // pool task that claims and runs this call's tasks
}

// NewCall builds a fan-out of n tasks; task i invokes kernel(i, i+1). The
// kernel typically indexes a slice of per-task work descriptors rebound
// before each Run.
func NewCall(n int, kernel func(lo, hi int)) *Call {
	c := &Call{n: n, kernel: kernel, done: make(chan struct{}, 1)}
	c.next.Store(int64(n))
	c.help = task{kernel: func(int, int) { c.work() }}
	return c
}

// work claims and runs tasks until none are left. A help token that a worker
// dequeues after its Run has finished finds the counter exhausted and returns
// at once; one dequeued during a later Run of the same Call simply helps that
// Run, whose state was published by the counter reset it observed.
func (c *Call) work() {
	for i := c.next.Add(1) - 1; i < int64(c.n); i = c.next.Add(1) - 1 {
		c.kernel(int(i), int(i)+1)
		if c.left.Add(-1) == 0 {
			c.done <- struct{}{}
		}
	}
}

// Run executes all tasks, inline when the pool has a single worker (serial
// and parallel execution are then trivially identical), otherwise shared with
// the pool. Zero heap allocations.
func (c *Call) Run() {
	if c.n == 0 {
		return
	}
	ensurePool()
	if nworkers <= 1 || c.n == 1 {
		for i := 0; i < c.n; i++ {
			c.kernel(i, i+1)
		}
		return
	}
	c.left.Store(int64(c.n))
	c.next.Store(0) // publishes the Run: claims start here
	for i := 0; i < c.n-1; i++ {
		select {
		case tasks <- c.help:
		default:
			// Queue full (heavy load): the caller runs the task itself.
		}
	}
	c.work()
	<-c.done
}
