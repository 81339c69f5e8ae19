package engine_test

import (
	"strings"
	"testing"
	"time"

	"nshd/internal/core"
	"nshd/internal/engine"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// fuseSmall lowers nn.FuseMinMACs for the test's duration so the tiny
// fixture's extractor clears the fusion gate (what the var is documented
// for); the default gate would leave it layer-by-layer.
func fuseSmall(t *testing.T) {
	saved := nn.FuseMinMACs
	nn.FuseMinMACs = 0
	t.Cleanup(func() { nn.FuseMinMACs = saved })
}

// requireFusedExtract fails unless the engine's extract stage reports a fused
// block among its timed sub-steps.
func requireFusedExtract(t *testing.T, e *engine.Engine) {
	t.Helper()
	in := e.InShape()
	times, err := e.TimeStages(tensor.New(1, in[0], in[1], in[2]), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range times[0].Sub {
		if strings.HasPrefix(sub.Name, "fused{") {
			return
		}
	}
	t.Fatalf("extract stage did not fuse: %+v", times[0])
}

// sameOutputs requires two engines to agree bit for bit on predictions and
// query hypervectors over a batch.
func sameOutputs(t *testing.T, got, want *engine.Engine, images *tensor.Tensor) {
	t.Helper()
	wp, err := want.Predict(images)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := got.Predict(images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("sample %d: pred %d vs %d", i, gp[i], wp[i])
		}
	}
	wh, err := want.QueryHVs(images)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := got.QueryHVs(images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wh.Data {
		if gh.Data[i] != wh.Data[i] {
			t.Fatalf("query hypervector element %d differs: %g vs %g", i, gh.Data[i], wh.Data[i])
		}
	}
}

// TestEngineFusedExtractBitExact is the engine-level acceptance property for
// the cache-resident extraction blocks: predictions and query hypervectors
// of the fused engine must be bit-identical to the layer-by-layer
// (WithUnfusedExtract) engine across every tail case and both classifier
// kernels. The extractor's tiling must be invisible end to end.
func TestEngineFusedExtractBitExact(t *testing.T) {
	fuseSmall(t)
	for _, packed := range []bool{false, true} {
		for _, tc := range tailCases() {
			t.Run(kernelName(packed)+"/"+tc.name, func(t *testing.T) {
				p, test := buildPipeline(t, tc.mut(func(c *core.Config) { c.PackedInference = packed }))
				base, err := engine.Compile(p, append([]engine.Option{engine.WithUnfusedExtract()}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				fz, err := engine.Compile(p, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				requireFusedExtract(t, fz)
				sameOutputs(t, fz, base, test.Images)
			})
		}
	}
}

// TestEngineFusedExtractTimeStages pins the per-step timing breakdown: the
// fused engine reports fused blocks as sub-stage rows under extract, and the
// sub rows always accompany the extract stage entry.
func TestEngineFusedExtractTimeStages(t *testing.T) {
	fuseSmall(t)
	p, test := buildPipeline(t, func(c *core.Config) {})
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	times, err := e.TimeStages(test.Images, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(e.Stages()) {
		t.Fatalf("TimeStages returned %d rows for %d stages", len(times), len(e.Stages()))
	}
	if times[0].Name != "extract" || len(times[0].Sub) == 0 {
		t.Fatalf("extract stage has no sub-step rows: %+v", times[0])
	}
	for _, sub := range times[0].Sub {
		if sub.Seconds < 0 {
			t.Fatalf("negative sub-step time: %+v", sub)
		}
	}
	requireFusedExtract(t, e)
}

// TestEngineMultiChunkFusedExtract is the regression test for the hang PR 11
// found: PredictInto with N > chunk on an engine whose fused extract block
// has ≥ 2 tiles. The block's tile fan-out (parallel.Call.Run) used to help
// drain the shared pool queue while it waited, so with its chunk's arena
// held it could start ANOTHER queued chunk task on the same stack, which
// then blocked forever in getArena on the arenas held beneath it. The budget
// of one byte plans single-row tiles (4 per sample here), BatchSize 2 makes
// 11 chunks of the 21 test samples, and the watchdog turns a hang into a
// failure instead of wedging the suite. Results must equal the single-chunk
// path's, sample by sample.
func TestEngineMultiChunkFusedExtract(t *testing.T) {
	fuseSmall(t)
	saved := nn.FuseTileBudgetBytes
	nn.FuseTileBudgetBytes = 1
	t.Cleanup(func() { nn.FuseTileBudgetBytes = saved })

	for _, packed := range []bool{false, true} {
		p, test := buildPipeline(t, func(c *core.Config) {
			c.BatchSize = 2
			c.PackedInference = packed
		})
		e, err := engine.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		requireFusedExtract(t, e)
		if n, c := test.Len(), e.ChunkSize(); n < 4*c {
			t.Fatalf("fixture has %d samples for chunk %d; the regression needs >= 4 chunks", n, c)
		}

		type result struct {
			preds []int
			hvs   *tensor.Tensor
			err   error
		}
		done := make(chan result, 1) // the goroutine's one send never blocks
		go func() {
			var r result
			r.preds, r.err = e.Predict(test.Images)
			if r.err == nil {
				r.hvs, r.err = e.QueryHVs(test.Images)
			}
			done <- r
		}()
		var multi result
		select {
		case multi = <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("multi-chunk PredictInto over a multi-tile fused block deadlocked")
		}
		if multi.err != nil {
			t.Fatal(multi.err)
		}

		// Concurrent callers, multi-chunk and single-sample mixed: no stack
		// may end up waiting on arenas that only it can free.
		mixed := make(chan error, 4) // one send per goroutine below
		for g := 0; g < 4; g++ {
			imgs := test.Images
			if g%2 == 1 {
				imgs = imagesAt(test.Images, g, g+1)
			}
			go func() {
				for it := 0; it < 5; it++ {
					if _, err := e.Predict(imgs); err != nil {
						mixed <- err
						return
					}
				}
				mixed <- nil
			}()
		}
		for g := 0; g < 4; g++ {
			select {
			case err := <-mixed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent multi-chunk and single-chunk callers deadlocked")
			}
		}

		// Single-chunk reference: the same engine, one sample at a time.
		n, d := test.Len(), e.Dim()
		for i := 0; i < n; i++ {
			img := imagesAt(test.Images, i, i+1)
			pr, err := e.Predict(img)
			if err != nil {
				t.Fatal(err)
			}
			if pr[0] != multi.preds[i] {
				t.Fatalf("sample %d: multi-chunk pred %d, single-chunk %d", i, multi.preds[i], pr[0])
			}
			hv, err := e.QueryHVs(img)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range hv.Data {
				if multi.hvs.Data[i*d+j] != v {
					t.Fatalf("sample %d: multi-chunk query hypervector differs at %d", i, j)
				}
			}
		}
	}
}

// TestEngineZeroAllocBatch1FusedExtract extends the batch-1 allocation gate
// (name prefix keeps it inside `make alloc`) to the fused extractor: it must
// stay heap-free in steady state across every tail case and both classifier
// kernels, exercising the tile-buffer freelist reuse.
func TestEngineZeroAllocBatch1FusedExtract(t *testing.T) {
	fuseSmall(t)
	for _, packed := range []bool{false, true} {
		for _, tc := range tailCases() {
			t.Run(kernelName(packed)+"/"+tc.name, func(t *testing.T) {
				p, test := buildPipeline(t, tc.mut(func(c *core.Config) { c.PackedInference = packed }))
				e, err := engine.Compile(p, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				requireFusedExtract(t, e)
				requireZeroAlloc(t, e, firstImages(test.Images, 1))
			})
		}
	}
}
