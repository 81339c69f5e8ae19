// Package parallel provides a persistent worker pool for data-parallel
// kernels. The pool starts GOMAXPROCS long-lived workers once, so the
// steady-state cost of fanning out a kernel is a channel send instead of
// goroutine creation.
//
// Every fan-out is a Call: For takes one from a stack of idle ones, and the
// serving engine and the column-split products prebind theirs. The queue
// carries only help tokens, and every waiter claims and runs only its own
// call's tasks, then waits for helpers already executing one. No waiter ever
// runs another call's work on top of its stack, so the pool is nesting-safe
// (a kernel on a pool worker may call For again: conv2d over samples, each
// sample's GEMM over tiles), and a kernel may fan out while it holds a
// resource that other queued work blocks on.
package parallel

import (
	"runtime"
	"sync"
)

var (
	initOnce sync.Once
	tasks    chan *Call // help tokens: a worker that takes one joins that Call's Run
	nworkers int
)

// loadBalanceFactor controls how many chunks each worker gets on average;
// more than one lets fast workers steal slack from slow ones.
const loadBalanceFactor = 4

func ensurePool() {
	initOnce.Do(func() {
		nworkers = runtime.GOMAXPROCS(0)
		// Room for the tokens of nested and concurrent fan-outs; a Run that
		// finds the queue full runs its tasks on its caller.
		tasks = make(chan *Call, 8*nworkers)
		for i := 0; i < nworkers; i++ {
			go func() {
				for c := range tasks {
					c.queued.Add(-1)
					c.work()
				}
			}()
		}
	})
}

// Workers returns the pool size (GOMAXPROCS at first use).
func Workers() int {
	ensurePool()
	return nworkers
}

// forCall is a pooled Call that deals [0, n) out in chunks of chunk items.
// Its task kernel is bound once, when For makes it, so a For allocates
// nothing of its own.
type forCall struct {
	*Call
	body     func(lo, hi int)
	n, chunk int
}

// forCalls is For's stack of idle Calls. It is uncapped and never waits, so
// a For nested in another's chunk takes a Call of its own (a Freelist's Get
// may wait), and unlike a sync.Pool it keeps every Call it is given, under
// the race detector too, which keeps a training step's allocation count
// steady.
var forCalls struct {
	sync.Mutex
	free []*forCall
}

// chunkAt runs the t-th chunk of the current For.
func (f *forCall) chunkAt(t, _ int) {
	lo := t * f.chunk
	f.body(lo, min(lo+f.chunk, f.n))
}

// For runs kernel over [0, n) cut into Tasks(n, grain) contiguous chunks of
// ⌈n/chunks⌉ items (the last one shorter), blocking until all have run; the
// grain is a work-size floor, so callers can express "one task must be worth
// at least X flops" as grain = X / costPerItem. One chunk runs inline with no
// dispatch. More run as the tasks of a pooled Call: the caller claims chunks
// itself while helpers join, and a chunk's panic reaches the caller once the
// other chunks have run.
func For(n, grain int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := Tasks(n, grain)
	if chunks <= 1 {
		kernel(0, n)
		return
	}
	var f *forCall
	forCalls.Lock()
	if top := len(forCalls.free) - 1; top >= 0 {
		f, forCalls.free = forCalls.free[top], forCalls.free[:top]
	}
	forCalls.Unlock()
	if f == nil {
		f = new(forCall)
		f.Call = NewCall(0, f.chunkAt)
	}
	f.body, f.n, f.chunk = kernel, n, (n+chunks-1)/chunks
	f.RunN((n + f.chunk - 1) / f.chunk)
	f.body = nil
	forCalls.Lock()
	forCalls.free = append(forCalls.free, f)
	forCalls.Unlock()
}

// Tasks is how many chunks For aims to cut n > 0 items into with a floor of
// grain items a chunk: loadBalanceFactor per worker where the floor allows,
// 1 (run inline) when n <= grain or the pool has a single worker. A Call that
// deals out ranges of items sizes its Run with it.
func Tasks(n, grain int) int {
	ensurePool()
	grain = max(grain, 1)
	if nworkers <= 1 || n <= grain {
		return 1
	}
	return min(nworkers*loadBalanceFactor, (n+grain-1)/grain)
}
