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
	hvs, err := e.QueryHVs(imgs)
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
			name   string
			packed bool
			build  func(p *core.Pipeline, calib *tensor.Tensor) (*engine.Engine, error)
		}{
			{"float", false, func(p *core.Pipeline, _ *tensor.Tensor) (*engine.Engine, error) { return engine.Compile(p) }},
			{"packed", true, func(p *core.Pipeline, _ *tensor.Tensor) (*engine.Engine, error) { return engine.Compile(p) }},
			{"remat", false, func(p *core.Pipeline, _ *tensor.Tensor) (*engine.Engine, error) {
				return engine.Compile(p, engine.WithRemat())
			}},
			{"compressed", true, func(p *core.Pipeline, _ *tensor.Tensor) (*engine.Engine, error) {
				plan := engine.NewCompressPlan(1000, []int{0, 1, 3}, engine.PrecisionTernary, 0)
				return engine.Compile(p, engine.WithCompression(plan))
			}},
		} {
			t.Run(fmt.Sprintf("floor=%d/%s", floor, cfg.name), func(t *testing.T) {
				p, test := buildBigPipeline(t, func(c *core.Config) { c.PackedInference = cfg.packed })
				e, err := cfg.build(p, test.Images)
				if err != nil {
					t.Fatal(err)
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
