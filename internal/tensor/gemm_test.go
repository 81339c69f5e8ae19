package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"nshd/internal/tensor/tensortest"
)

func TestMain(m *testing.M) {
	// Give the pool several workers even on 1-CPU machines so the parallel
	// GEMM decomposition is actually exercised by these tests.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	m.Run()
}

func randMat(seed int64, m, n int) *Tensor {
	t := New(m, n)
	NewRNG(seed).FillNormal(t, 0, 1)
	return t
}

// maxRelDiff returns the largest elementwise |x-y| / max(1, |x|).
func maxRelDiff(x, y *Tensor) float64 {
	worst := 0.0
	for i, v := range x.Data {
		d := math.Abs(float64(v - y.Data[i]))
		if a := math.Abs(float64(v)); a > 1 {
			d /= a
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// gemmShapes are the pipeline-representative shapes: conv im2col products,
// HD random projection, similarity scoring, plus tail-heavy odd sizes.
var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{3, 5, 7},
	{4, 4, 4},
	{5, 9, 3},
	{32, 1024, 27},   // conv2d: wmat @ cols
	{64, 3000, 100},  // projection EncodeBatch
	{64, 10, 3000},   // similarity scoring (via MatMulT layout too)
	{130, 257, 300},  // K block boundary + tails in every dimension
	{257, 63, 513},   // K > gemmKC, N tail
	{100, 300, 1000}, // multiple K blocks
}

func TestMatMulMatchesNaive(t *testing.T) {
	for _, s := range gemmShapes {
		a := randMat(int64(s.m*7+s.k), s.m, s.k)
		b := randMat(int64(s.n*13+s.k), s.k, s.n)
		got := New(s.m, s.n)
		want := New(s.m, s.n)
		MatMulInto(got, a, b)
		MatMulNaiveInto(want, a, b)
		// The blocked kernel regroups the K-sum per gemmKC block, so float32
		// results differ from the naive linear sum by O(√K·ε).
		tol := 1e-6 * (4 + math.Sqrt(float64(s.k))*4)
		if d := maxRelDiff(want, got); d > tol {
			t.Errorf("shape %dx%dx%d: blocked vs naive rel diff %g > %g", s.m, s.n, s.k, d, tol)
		}
	}
}

// TestMatMulSerialParallelIdentical asserts the chunk decomposition does not
// change results at all: the parallel kernel must be bit-exact against a
// single serial gemmRange over the whole output (chunk-boundary bugs and
// accumulation-order drift both fail this).
func TestMatMulSerialParallelIdentical(t *testing.T) {
	for _, asm := range []bool{true, false} {
		runWithAsm(asm, func() {
			for _, s := range gemmShapes {
				a := randMat(int64(s.m+s.k), s.m, s.k)
				b := randMat(int64(s.n-s.k), s.k, s.n)
				serial := New(s.m, s.n)
				gemmRange(serial.Data, a.Data, b.Data, s.n, s.k, 0, s.m, 0, s.n)
				viaAPI := MatMul(a, b)
				for i := range serial.Data {
					if serial.Data[i] != viaAPI.Data[i] {
						t.Fatalf("shape %dx%dx%d: serial and parallel differ at %d: %v vs %v",
							s.m, s.n, s.k, i, serial.Data[i], viaAPI.Data[i])
					}
				}
			}
		})
	}
}

// TestGemmSplitTilesExactly runs every job of the parallel decomposition
// concurrently (one goroutine per tile, far finer than the pool would use)
// and checks the assembled result is bit-exact against serial execution.
func TestGemmSplitTilesExactly(t *testing.T) {
	for _, workers := range []int{2, 3, 8, 64} {
		for _, s := range gemmShapes {
			jobs := gemmSplit(s.m, s.n, s.k, workers)
			// Every output cell must belong to exactly one job.
			covered := make([]int, s.m*s.n)
			for _, j := range jobs {
				if j.r0 < 0 || j.r1 > s.m || j.c0 < 0 || j.c1 > s.n || j.r0 >= j.r1 || j.c0 >= j.c1 {
					t.Fatalf("workers=%d shape %v: bad job %+v", workers, s, j)
				}
				for r := j.r0; r < j.r1; r++ {
					for c := j.c0; c < j.c1; c++ {
						covered[r*s.n+c]++
					}
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d shape %v: cell %d covered %d times", workers, s, i, c)
				}
			}
			a := randMat(int64(workers+s.m), s.m, s.k)
			b := randMat(int64(workers+s.n), s.k, s.n)
			serial := New(s.m, s.n)
			gemmRange(serial.Data, a.Data, b.Data, s.n, s.k, 0, s.m, 0, s.n)
			tiled := New(s.m, s.n)
			var wg sync.WaitGroup
			for _, j := range jobs {
				wg.Add(1)
				go func(j gemmJob) {
					defer wg.Done()
					gemmRange(tiled.Data, a.Data, b.Data, s.n, s.k, j.r0, j.r1, j.c0, j.c1)
				}(j)
			}
			wg.Wait()
			for i := range serial.Data {
				if serial.Data[i] != tiled.Data[i] {
					t.Fatalf("workers=%d shape %v: tile decomposition changed element %d", workers, s, i)
				}
			}
		}
	}
}

func TestMatMulTMatchesDotReference(t *testing.T) {
	for _, s := range []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {64, 10, 3000}, {63, 9, 250}, {130, 130, 65},
	} {
		a := randMat(int64(s.m), s.m, s.k)
		b := randMat(int64(s.n), s.n, s.k)
		got := MatMulT(a, b)
		// The vectorized dot kernel uses fused multiply-adds and 8-lane
		// partial sums, so it differs from the scalar reference by rounding
		// only (O(√K·ε)); serial-vs-parallel determinism is covered below.
		tol := 1e-6 * (4 + math.Sqrt(float64(s.k))*4)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				want := float64(Dot(a.Row(i), b.Row(j)))
				d := math.Abs(float64(got.At(i, j)) - want)
				if a := math.Abs(want); a > 1 {
					d /= a
				}
				if d > tol {
					t.Fatalf("shape %v: [%d,%d] = %v, want %v (rel diff %g > %g)", s, i, j, got.At(i, j), want, d, tol)
				}
			}
		}
	}
}

// TestMatMulTSerialParallelIdentical: the parallel row split must not change
// any output bit versus a single serial pass.
func TestMatMulTSerialParallelIdentical(t *testing.T) {
	a := randMat(11, 130, 999)
	b := randMat(12, 37, 999)
	got := MatMulT(a, b)
	serial := New(130, 37)
	matMulTRange(serial.Data, a.Data, b.Data, 37, 999, 0, 130)
	for i := range serial.Data {
		if serial.Data[i] != got.Data[i] {
			t.Fatalf("serial and parallel MatMulT differ at %d", i)
		}
	}
}

func TestTransposeBlocked(t *testing.T) {
	for _, s := range []struct{ m, n int }{
		{1, 1}, {1, 7}, {7, 1}, {31, 33}, {32, 32}, {100, 257}, {513, 129},
	} {
		a := randMat(int64(s.m*s.n), s.m, s.n)
		tr := Transpose(a)
		if tr.Shape[0] != s.n || tr.Shape[1] != s.m {
			t.Fatalf("Transpose shape %v", tr.Shape)
		}
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				if tr.At(j, i) != a.At(i, j) {
					t.Fatalf("%dx%d: [%d,%d] mismatch", s.m, s.n, i, j)
				}
			}
		}
	}
}

// TestParallelKernelsRaceClean hammers MatMulInto / MatMulT / ParallelFor
// from many goroutines at once; meaningful under -race.
func TestParallelKernelsRaceClean(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			a := randMat(seed, 40, 300)
			b := randMat(seed+1, 300, 50)
			bt := randMat(seed+2, 50, 300)
			dst := New(40, 50)
			for r := 0; r < 5; r++ {
				MatMulInto(dst, a, b)
				MatMulT(a, bt)
				total := make([]float32, 128)
				ParallelFor(128, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						total[i] = float32(i) + a.Data[i%len(a.Data)]
					}
				})
			}
		}(int64(g * 101))
	}
	wg.Wait()
}

// --- microbenchmarks: blocked vs seed-naive on pipeline shapes ---

func benchShapes() []struct {
	name    string
	m, n, k int
} {
	return []struct {
		name    string
		m, n, k int
	}{
		{"conv_32x1024x27", 32, 1024, 27},
		{"proj_64x3000x100", 64, 3000, 100},
		{"sim_64x10x3000", 64, 10, 3000},
		{"square_256", 256, 256, 256},
	}
}

func BenchmarkGEMM(b *testing.B) {
	for _, s := range benchShapes() {
		a := randMat(1, s.m, s.k)
		bb := randMat(2, s.k, s.n)
		dst := New(s.m, s.n)
		flops := float64(2 * s.m * s.n * s.k)
		b.Run(s.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulNaiveInto(dst, a, bb)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
		tensortest.BenchWidths(b, s.name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

func BenchmarkMatMulT(b *testing.B) {
	a := randMat(1, 64, 3000)
	bt := randMat(2, 10, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(a, bt)
	}
	b.ReportMetric(float64(2*64*10*3000*b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkTranspose(b *testing.B) {
	for _, n := range []int{256, 1024} {
		a := randMat(3, n, n)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Transpose(a)
			}
			b.SetBytes(int64(n * n * 4 * 2))
		})
	}
}
