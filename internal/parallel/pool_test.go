package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMain(m *testing.M) {
	// Force a multi-worker pool even on single-CPU machines so the dispatch,
	// nesting, help-token and panic paths are genuinely exercised (GOMAXPROCS
	// may exceed the physical CPU count).
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	m.Run()
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4097} {
		hits := make([]int32, n)
		For(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForRespectsGrain(t *testing.T) {
	var minChunk atomic.Int64
	minChunk.Store(1 << 60)
	const n, grain = 1000, 100
	For(n, grain, func(lo, hi int) {
		if w := int64(hi - lo); w < minChunk.Load() {
			minChunk.Store(w)
		}
	})
	// Chunks are ceil-divided so the floor is approximate, but no chunk
	// should be drastically below the grain (e.g. single items).
	if minChunk.Load() < grain/2 {
		t.Fatalf("chunk of %d items despite grain %d", minChunk.Load(), grain)
	}
}

func TestForSmallRunsInline(t *testing.T) {
	calls := 0
	For(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single inline chunk [0,10), got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 inline call, got %d", calls)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	// Three levels of nesting: each mid-level chunk kernel issues another
	// For call of its own. Item counts must be exact at every level.
	var items64, items8, calls64 atomic.Int64
	For(32, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(64, 1, func(jlo, jhi int) {
				calls64.Add(1)
				For(8, 1, func(klo, khi int) {
					items8.Add(int64(khi - klo))
				})
				items64.Add(int64(jhi - jlo))
			})
		}
	})
	if items64.Load() != 32*64 {
		t.Fatalf("mid-level items = %d, want %d", items64.Load(), 32*64)
	}
	if items8.Load() != calls64.Load()*8 {
		t.Fatalf("inner items = %d, want %d", items8.Load(), calls64.Load()*8)
	}
}

// TestConcurrentHammer drives many For calls from independent goroutines at
// once; run with -race to validate the pool's synchronization.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 1 + (seed*31+r*17)%200
				out := make([]int, n)
				For(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = i * i
					}
				})
				for i, v := range out {
					if v != i*i {
						t.Errorf("goroutine %d round %d: out[%d]=%d", seed, r, i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkForDispatch(b *testing.B) {
	var sink atomic.Int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(Workers()*loadBalanceFactor, 1, func(lo, hi int) {
			sink.Add(int64(hi - lo))
		})
	}
}
