package parallel

import "sync/atomic"

// Call is a reusable fan-out of a fixed set of tasks over a prebound kernel,
// and the pool's one dispatcher: For runs its chunks on a pooled Call, and
// the serving engine builds its own once, at compile time. Run costs only
// atomic and channel operations — no allocation — which keeps per-sample
// tile dispatch inside the serving engine's zero-alloc envelope.
//
// Run blocks until every task has completed. Tasks are claimed from a
// counter: Run offers the pool a help token per task another worker could
// take and then claims tasks itself until none are left, so it never depends
// on a pool worker being free, and it never runs another call's work while
// it waits. That matters to callers that hold a resource across Run (the
// serving engine's parts hold a worker arena): a waiter that drained the
// shared queue could start a queued task that blocks on that very resource,
// on top of the stack that holds it. After claiming, Run waits only for
// helpers that are already executing one of its tasks.
//
// A task that panics does not unwind the goroutine it runs on — a pool
// helper's panic would kill the process, beyond any recover of the caller's.
// The first panic value is kept, every other task still runs, and Run panics
// with that value on its caller's goroutine once all of them have finished.
//
// A Call is reusable but NOT reentrant: concurrent Runs of the same Call race
// on its completion state. Callers that need concurrency hold one Call per
// concurrent execution (the fused blocks keep them in a freelist alongside
// their tile buffers).
type Call struct {
	n      int // tasks of a plain Run
	k      int // tasks of the current Run; written before next publishes it
	kernel func(lo, hi int)
	next   atomic.Int64  // next unclaimed task index minus k; >= 0 when none are left
	left   atomic.Int64  // tasks of the current Run not yet completed
	queued atomic.Int64  // this call's help tokens in the pool's queue
	done   chan struct{} // capacity 1: one token when left reaches zero
	fault  atomic.Pointer[taskPanic]
}

// taskPanic carries the value a task panicked with to Run's caller.
type taskPanic struct{ v any }

// NewCall builds a fan-out of n tasks; task i invokes kernel(i, i+1). The
// kernel typically indexes a slice of per-task work descriptors rebound
// before each Run.
func NewCall(n int, kernel func(lo, hi int)) *Call {
	return &Call{n: n, kernel: kernel, done: make(chan struct{}, 1)}
}

// work claims and runs tasks until none are left. A help token that a worker
// dequeues after its Run has finished finds the counter exhausted and returns
// at once; one dequeued during a later Run of the same Call simply helps that
// Run, whose state was published by the counter reset it observed.
func (c *Call) work() {
	for i := c.next.Add(1) - 1; i < 0; i = c.next.Add(1) - 1 {
		c.run(c.k + int(i)) // a claim that succeeded saw this Run's reset, hence its k
		if c.left.Add(-1) == 0 {
			c.done <- struct{}{}
		}
	}
}

// run runs task t, keeping the first panic of the Run for RunN to re-raise.
func (c *Call) run(t int) {
	defer func() {
		if r := recover(); r != nil {
			c.fault.CompareAndSwap(nil, &taskPanic{r})
		}
	}()
	c.kernel(t, t+1)
}

// Run executes all n tasks the Call was built with.
func (c *Call) Run() { c.RunN(c.n) }

// RunN executes tasks [0, k) — the per-Run count for callers whose fan-out
// width depends on the input (a batch of two has two parts, of one none) —
// inline when the pool has a single worker (serial and parallel execution are
// then trivially identical) or k is 1, otherwise shared with the pool. Zero
// heap allocations. A task's panic reaches the caller after the other tasks
// have run.
func (c *Call) RunN(k int) {
	ensurePool()
	if nworkers <= 1 || k <= 1 {
		for i := 0; i < k; i++ {
			c.kernel(i, i+1)
		}
		return
	}
	c.k = k
	c.left.Store(int64(k))
	c.next.Store(int64(-k)) // publishes the Run: claims count up to zero
	// A token for each task past the caller's first, up to one per worker:
	// the caller is often no pool worker, and with the first helper alone
	// the joint HD loop ran slower (BenchmarkTrainOnFeatures, CHANGES.md).
	// Tokens of an earlier Run still queued count: a worker that takes one
	// joins whichever Run is live, so a call's stale tokens never pile up.
	for i := min(k-1, nworkers) - int(c.queued.Load()); i > 0; i-- {
		c.queued.Add(1)
		select {
		case tasks <- c:
		default:
			// Queue full (heavy load): the caller runs the tasks itself.
			c.queued.Add(-1)
		}
	}
	c.work()
	<-c.done
	if f := c.fault.Swap(nil); f != nil {
		panic(f.v)
	}
}
