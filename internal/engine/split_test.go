package engine_test

import (
	"fmt"
	"testing"
	"time"

	"nshd/internal/core"
	"nshd/internal/engine"
	"nshd/internal/nn"
	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// splitOutputs is what one engine call sequence produces for a batch.
type splitOutputs struct {
	preds []int
	hvs   *tensor.Tensor
}

func runAll(t testing.TB, e *engine.Engine, imgs *tensor.Tensor) splitOutputs {
	preds, err := e.Predict(imgs)
	if err != nil {
		t.Fatal(err)
	}
	hvs, err := engine.QueryHVs(e, imgs)
	if err != nil {
		t.Fatal(err)
	}
	return splitOutputs{preds, hvs}
}

// matchesSingles reports the first place a batch's outputs differ from the
// per-sample (n = 1) outputs of samples [0, n), or "".
func (got splitOutputs) matchesSingles(e *engine.Engine, singles []splitOutputs) string {
	n, d := len(got.preds), e.Dim()
	for i := 0; i < n; i++ {
		one := singles[i]
		if got.preds[i] != one.preds[0] {
			return fmt.Sprintf("sample %d: pred %d, alone %d", i, got.preds[i], one.preds[0])
		}
		for j, v := range one.hvs.Data {
			if got.hvs.Data[i*d+j] != v {
				return fmt.Sprintf("sample %d: query hypervector differs at %d", i, j)
			}
		}
	}
	return ""
}

// TestEngineSplitBitExact pins the batch split: however a batch is cut over
// the workers — not at all, in sub-chunk parts, in several even parts of at
// most a chunk — predictions and query hypervectors of every sample equal
// the ones it gets alone, bit for bit, for every engine
// configuration and on both sides of the work floor (at floor 1 every batch
// of two or more splits; at the top only batches over a chunk do, chunk by
// chunk, as they always have).
func TestEngineSplitBitExact(t *testing.T) {
	fuseSmall(t)
	for _, floor := range []int64{1, 1 << 50} {
		engine.SetSplitFloor(t, floor)
		for _, cfg := range []struct {
			name             string
			packed, detached bool
		}{
			{"float", false, false},
			{"packed", true, false},
			{"remat", false, true}, // see tailCase
		} {
			t.Run(fmt.Sprintf("floor=%d/%s", floor, cfg.name), func(t *testing.T) {
				p, test := buildBigPipeline(t, func(c *core.Config) { c.PackedInference = cfg.packed })
				e, err := engine.Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.detached {
					detach(p)
				}
				chunk, w := e.ChunkSize(), parallel.Workers()
				if _, minBatch := e.SplitRule(); floor == 1 && minBatch != w {
					t.Fatalf("floor 1: smallest batch that splits is %d, want the %d workers", minBatch, w)
				}
				singles := make([]splitOutputs, 3*chunk+1)
				for i := range singles {
					singles[i] = runAll(t, e, imagesAt(test.Images, i, i+1))
				}
				for _, n := range []int{1, 2, 3, w, w + 1, chunk - 1, chunk, chunk + 1, 3*chunk + 1} {
					if diff := runAll(t, e, firstImages(test.Images, n)).matchesSingles(e, singles); diff != "" {
						t.Fatalf("n=%d: %s", n, diff)
					}
				}
			})
		}
	}
}

// TestEngineSplitConcurrentCallers runs the three fan-outs the split composes
// against each other, under a watchdog (and -race in `make race`): chunk-sized
// and over-a-chunk PredictInto on one engine — batch splits that
// compete for its arenas and prebound calls — and, on a 96×96 engine whose
// block is cut in single-row tiles, one image (tile fan-out only) and three
// (tile fan-outs inside the parts of a batch split). Every result must equal
// the one computed before the contention.
func TestEngineSplitConcurrentCallers(t *testing.T) {
	fuseSmall(t)
	engine.SetSplitFloor(t, 1)
	saved := nn.FuseTileBudgetBytes
	nn.FuseTileBudgetBytes = 1
	t.Cleanup(func() { nn.FuseTileBudgetBytes = saved })

	p, test := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	big := tinyZoo(62, 4)
	big.InShape = []int{3, 96, 96}
	p96, test96 := buildPipelineOn(t, big, 1, func(c *core.Config) { c.PackedInference = true })
	e96, err := engine.Compile(p96)
	if err != nil {
		t.Fatal(err)
	}
	requireFusedExtract(t, e96)

	chunk := e.ChunkSize()
	batches := []struct {
		e    *engine.Engine
		imgs *tensor.Tensor
	}{
		{e, firstImages(test.Images, chunk)},
		{e, firstImages(test.Images, chunk+1)},
		{e96, firstImages(test96.Images, 1)},
		{e96, firstImages(test96.Images, 3)},
	}
	done := make(chan string, len(batches)) // one send per goroutine
	for _, b := range batches {
		want := runAll(t, b.e, b.imgs)
		go func() {
			preds := make([]int, b.imgs.Shape[0])
			for it := 0; it < 8; it++ {
				if err := b.e.PredictInto(b.imgs, preds); err != nil {
					done <- err.Error()
					return
				}
				for i, v := range want.preds {
					if preds[i] != v {
						done <- fmt.Sprintf("PredictInto(n=%d) under contention: sample %d pred %d, want %d", len(preds), i, preds[i], v)
						return
					}
				}
			}
			done <- ""
		}()
	}
	for range batches {
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("concurrent split callers deadlocked")
		}
	}
}

// TestEngineZeroAllocSplit extends the allocation gate (name prefix: `make
// alloc`) to the fan-out itself: a chunk-sized batch above the work floor,
// cut in sub-chunk parts, and a batch of three chunks and one, cut in even
// parts of at most a chunk, both go through the prebound call and must not
// touch the heap.
func TestEngineZeroAllocSplit(t *testing.T) {
	engine.SetSplitFloor(t, 1)
	for _, packed := range []bool{false, true} {
		p, test := buildBigPipeline(t, func(c *core.Config) { c.PackedInference = packed })
		e, err := engine.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{e.ChunkSize(), 3*e.ChunkSize() + 1} {
			imgs := firstImages(test.Images, n)
			requireZeroAlloc(t, e, imgs)
		}
	}
}

// streamedManifold compiles a 96×96 engine on tinyZoo cut at unit 1,
// whose manifold FC, 128 outputs over 16×12×12 pooled features, holds more than
// the 1 MiB of weights over which Linear.ForwardInfer splits W's columns over
// the pool (as embedded_large's [100 × 18432] FC does).
func streamedManifold(t *testing.T, packed bool) (*engine.Engine, *tensor.Tensor) {
	t.Helper()
	big := tinyZoo(62, 4)
	big.InShape = []int{3, 96, 96}
	p, test := buildPipelineOn(t, big, 1, func(c *core.Config) { c.FHat, c.PackedInference = 128, packed })
	if bytes := 4 * p.Manifold.PooledF * p.Manifold.FHat; bytes <= 1<<20 {
		t.Fatalf("manifold FC weights %d B, not over the column split's 1 MiB", bytes)
	}
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return e, test.Images
}

// TestEngineZeroAllocStreamedManifold extends the allocation gate (name
// prefix: `make alloc`) to a manifold FC whose product is split by columns:
// at batch 1, where the split is the only fan-out, and with the work floor at
// 1, where it runs inside every part of a batch split, the prebound Calls must
// keep PredictInto off the heap.
func TestEngineZeroAllocStreamedManifold(t *testing.T) {
	engine.SetSplitFloor(t, 1)
	for _, packed := range []bool{false, true} {
		t.Run(kernelName(packed), func(t *testing.T) {
			e, imgs := streamedManifold(t, packed)
			for _, n := range []int{1, parallel.Workers() + 1, min(e.ChunkSize(), imgs.Shape[0])} {
				requireZeroAlloc(t, e, firstImages(imgs, n))
			}
		})
	}
}

// TestEngineStreamedManifoldConcurrentCallers runs the manifold's column
// split inside the parts of batch splits from two goroutines at once, each
// batch more images than workers, under a watchdog (and -race in `make
// race`): the splits compete for the engine's arenas and prebound calls and
// for the column splits' own. Every sample's prediction must equal the one it
// gets alone, before the contention.
func TestEngineStreamedManifoldConcurrentCallers(t *testing.T) {
	engine.SetSplitFloor(t, 1)
	e, imgs := streamedManifold(t, true)
	w := parallel.Workers()
	n := min(2*w+1, imgs.Shape[0])
	singles := make([]splitOutputs, n)
	for i := range singles {
		singles[i] = runAll(t, e, imagesAt(imgs, i, i+1))
	}
	if diff := runAll(t, e, firstImages(imgs, n)).matchesSingles(e, singles); diff != "" {
		t.Fatalf("n=%d: %s", n, diff)
	}
	done := make(chan string, 2)
	for _, lo := range []int{0, 1} {
		batch := imagesAt(imgs, lo, lo+n-1)
		go func() {
			preds := make([]int, batch.Shape[0])
			for it := 0; it < 8; it++ {
				if err := e.PredictInto(batch, preds); err != nil {
					done <- err.Error()
					return
				}
				for i, v := range preds {
					if want := singles[lo+i].preds[0]; v != want {
						done <- fmt.Sprintf("PredictInto under contention: sample %d pred %d, alone %d", lo+i, v, want)
						return
					}
				}
			}
			done <- ""
		}()
	}
	for range 2 {
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("concurrent callers of a streamed manifold deadlocked")
		}
	}
}
