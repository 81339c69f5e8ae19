// Package parallel provides a persistent worker pool for data-parallel
// kernels. The seed implementation spawned fresh goroutines on every
// MatMulInto/ParallelFor call; this pool starts GOMAXPROCS long-lived workers
// once and dispatches chunk tasks over a channel, so the steady-state cost of
// fanning out a kernel is a channel send instead of goroutine creation.
//
// The pool is nesting-safe: a kernel running on a pool worker may itself call
// For/ForGrain (e.g. conv2d parallelizes over samples and each sample's
// matmul parallelizes over tiles). Deadlock is impossible by construction
// because every goroutine that waits for a call to finish also *drains* the
// task queue while waiting — a blocked waiter is always also a consumer. The
// flip side: a For waiter may run ANY queued task on top of its own stack, so
// a kernel that holds a resource queued tasks can block on must fan out with
// a Call instead, whose waiter runs only its own tasks.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one contiguous chunk of a For call.
type task struct {
	lo, hi int
	kernel func(lo, hi int)
	call   *callState
}

// callState tracks completion of one For call's tasks. finished is a
// capacity-1 channel that receives one token when the last task completes.
type callState struct {
	remaining atomic.Int64
	finished  chan struct{}
}

var (
	initOnce sync.Once
	tasks    chan task
	nworkers int
)

// loadBalanceFactor controls how many chunks each worker gets on average;
// more than one lets fast workers steal slack from slow ones.
const loadBalanceFactor = 4

func ensurePool() {
	initOnce.Do(func() {
		nworkers = runtime.GOMAXPROCS(0)
		tasks = make(chan task, 8*nworkers)
		for i := 0; i < nworkers; i++ {
			go func() {
				for t := range tasks {
					runTask(t)
				}
			}()
		}
	})
}

// runTask runs one task and reports it to its call; a Call's help tokens
// carry no callState (they account for their own completion, see Call.work).
func runTask(t task) {
	t.kernel(t.lo, t.hi)
	if t.call != nil && t.call.remaining.Add(-1) == 0 {
		t.call.finished <- struct{}{}
	}
}

// Workers returns the pool size (GOMAXPROCS at first use).
func Workers() int {
	ensurePool()
	return nworkers
}

// For splits [0,n) into contiguous chunks and runs kernel over them on the
// pool, blocking until all chunks complete. Equivalent to ForGrain(n, 1, kernel).
func For(n int, kernel func(lo, hi int)) {
	ForGrain(n, 1, kernel)
}

// ForGrain is For with a work-size floor: no chunk is (much) smaller than
// grain items, so callers can express "one task must be worth at least X
// flops" as grain = X / costPerItem. When n <= grain or the pool has a single
// worker the kernel runs inline with no dispatch overhead.
func ForGrain(n, grain int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	ensurePool()
	if grain < 1 {
		grain = 1
	}
	if nworkers <= 1 || n <= grain {
		kernel(0, n)
		return
	}
	chunks := nworkers * loadBalanceFactor
	if maxChunks := (n + grain - 1) / grain; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks <= 1 {
		kernel(0, n)
		return
	}
	chunk := (n + chunks - 1) / chunks
	numTasks := (n + chunk - 1) / chunk
	st := &callState{finished: make(chan struct{}, 1)}
	st.remaining.Store(int64(numTasks))
	lo := 0
	for ti := 0; ti < numTasks; ti++ {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		t := task{lo: lo, hi: hi, kernel: kernel, call: st}
		if ti == numTasks-1 {
			// The caller always participates instead of just blocking.
			runTask(t)
		} else {
			select {
			case tasks <- t:
			default:
				// Queue full (deep nesting or heavy load): run inline
				// rather than block, preserving the no-deadlock invariant.
				runTask(t)
			}
		}
		lo = hi
	}
	// Help-drain: execute queued tasks (ours or other calls') while waiting.
	for {
		select {
		case <-st.finished:
			return
		case t := <-tasks:
			runTask(t)
		}
	}
}
