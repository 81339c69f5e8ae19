package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// tinyZoo mirrors the engine test helper: a fast 2-unit CNN over 16×16
// inputs.
func tinyZoo(seed int64, classes int) *cnn.Model {
	rng := tensor.NewRNG(seed)
	m := &cnn.Model{Name: "tinycnn", InShape: []int{3, 16, 16}, Classes: classes}
	m.Units = append(m.Units,
		cnn.Unit{Index: 0, Label: "conv0", Layers: []nn.Layer{
			nn.NewConv2D(rng, 3, 8, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
		cnn.Unit{Index: 1, Label: "conv1", Layers: []nn.Layer{
			nn.NewConv2D(rng, 8, 16, 3, 1, 1, true), nn.NewReLU(), nn.NewMaxPool2D(2)}},
	)
	m.Head = []nn.Layer{nn.NewFlatten(), nn.NewLinear(rng, 16*4*4, classes, true)}
	return m.Finish()
}

// buildEngine compiles a frozen engine over a bundled tiny pipeline, plus a
// dataset whose samples drive the tests. mut tweaks the config (e.g. a
// different seed to get a genuinely different model for swap tests).
func buildEngine(t *testing.T, mut func(*core.Config)) (*engine.Engine, *core.Pipeline, *dataset.Dataset) {
	t.Helper()
	cfgD := dataset.SynthConfig{Classes: 4, Train: 48, Test: 33, Size: 16, Noise: 0.2, Seed: 61}
	train, test := dataset.SynthCIFAR(cfgD)
	cfg := core.DefaultConfig(1, 4)
	cfg.D = 70
	cfg.FHat = 16
	cfg.Seed = 7
	cfg.BatchSize = 8
	cfg.PackedInference = true
	if mut != nil {
		mut(&cfg)
	}
	p, err := core.New(tinyZoo(62, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return e, p, test
}

// sample returns test sample i as a flat float slice.
func sample(d *dataset.Dataset, i int) []float32 {
	sl := d.Images.Len() / d.Len()
	return d.Images.Data[i*sl : (i+1)*sl]
}

// TestBatcherHammer is the load-correctness gate, run under -race by `make
// check`: many goroutines issue requests for *distinct* samples and each
// verifies it got its own sample's answer back (any cross-request routing
// leak surfaces as a wrong class), while results must be bit-identical to
// the direct engine path — which is itself tested bit-identical to
// Pipeline.PredictDirect.
func TestBatcherHammer(t *testing.T) {
	e, p, test := buildEngine(t, nil)
	want := p.PredictDirect(test.Images)

	// Distinct expected classes must exist, or routing bugs are invisible.
	seen := map[int]bool{}
	for _, c := range want {
		seen[c] = true
	}
	if len(seen) < 2 {
		t.Fatal("degenerate model: every sample predicts the same class")
	}

	for _, opts := range []Options{
		{MaxBatch: 16, MaxDelay: 500 * time.Microsecond, QueueCap: 256},
		{MaxDelay: -1, QueueCap: 256}, // greedy mode, engine-chunk MaxBatch
	} {
		b, err := New(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 16
		const iters = 60
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					i := (g*iters + it) % test.Len()
					if it%7 == 3 {
						// Small multi-sample request: three consecutive
						// samples, each answer checked against its own slot.
						j, k := (i+1)%test.Len(), (i+2)%test.Len()
						if j != i+1 || k != i+2 {
							continue // wrapped: samples not contiguous in memory
						}
						sl := test.Images.Len() / test.Len()
						preds, err := b.PredictBatch(context.Background(), test.Images.Data[i*sl:(i+3)*sl], 3)
						if err != nil {
							errs <- err
							return
						}
						for off, idx := range []int{i, j, k} {
							if preds[off] != want[idx] {
								errs <- errRouted
								return
							}
						}
						continue
					}
					got, err := b.Predict(context.Background(), sample(test, i))
					if err != nil {
						errs <- err
						return
					}
					if got != want[i] {
						errs <- errRouted
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Served == 0 || st.Batches == 0 {
			t.Fatalf("stats show no work: %+v", st)
		}
		if st.MeanBatch <= 1.0 && st.Batches > int64(st.Requests) {
			t.Fatalf("no batching happened: %+v", st)
		}
		b.Close()
	}
}

var errRouted = errors.New("serve: response routed to the wrong request")

// TestBatcherMatchesDirect drives every test sample through the batcher
// sequentially and demands bit-identical agreement with Engine.Predict (and
// therefore with Pipeline.PredictDirect, per the engine's own parity tests).
func TestBatcherMatchesDirect(t *testing.T) {
	e, p, test := buildEngine(t, nil)
	direct := p.PredictDirect(test.Images)
	enginePreds, err := e.Predict(test.Images)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < test.Len(); i++ {
		got, err := b.Predict(context.Background(), sample(test, i))
		if err != nil {
			t.Fatal(err)
		}
		if got != enginePreds[i] || got != direct[i] {
			t.Fatalf("sample %d: batcher=%d engine=%d direct=%d", i, got, enginePreds[i], direct[i])
		}
	}
}

// TestBatcherCancellation: a request whose context dies while queued is
// dropped at flush-assembly time with its context error, and its batchmates
// are served normally.
func TestBatcherCancellation(t *testing.T) {
	e, p, test := buildEngine(t, nil)
	want := p.PredictDirect(test.Images)
	// Long MaxDelay: the canceled request would otherwise linger; the live
	// one rides the same batch.
	b, err := New(e, Options{MaxBatch: 8, MaxDelay: 50 * time.Millisecond, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before enqueue: must come back with ctx.Err(), fast
	start := time.Now()
	if _, err := b.Predict(ctx, sample(test, 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("canceled request blocked")
	}

	// A live request behind a canceled one is still served correctly and the
	// flush loop keeps running.
	got, err := b.Predict(context.Background(), sample(test, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got != want[1] {
		t.Fatalf("after cancellation: got %d want %d", got, want[1])
	}

	// An expired deadline behaves like cancellation.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := b.Predict(dctx, sample(test, 2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v", err)
	}
	st := b.Stats()
	if st.Canceled == 0 {
		t.Fatalf("cancellations not counted: %+v", st)
	}
}

// TestBatcherBackpressure: a full admission queue rejects instantly with
// ErrOverloaded instead of queueing unbounded work. White-box: the batcher
// is built without its flush loop, so the queue deterministically stays
// full — in a live batcher the gather loop would drain it.
func TestBatcherBackpressure(t *testing.T) {
	e, _, test := buildEngine(t, nil)
	b := &Batcher{
		opts:      Options{MaxBatch: 4, MaxDelay: time.Hour, QueueCap: 2}.withDefaults(e),
		inShape:   e.InShape(),
		sampleLen: e.SampleLen(),
		queue:     make(chan *request, 2),
		loopDone:  make(chan struct{}),
		met:       newMetrics(),
	}
	b.eng.Store(e)

	// Fill the admission queue; with no flusher these stay parked. The
	// enqueuing callers wait on short deadlines and come back with their
	// context error — a queued request is still bounded by its own deadline.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, err := b.Predict(ctx, sample(test, i))
			results <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(b.queue) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The next admission must be refused immediately.
	start := time.Now()
	_, err := b.Predict(context.Background(), sample(test, 3))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded batcher returned %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v, want immediate", d)
	}
	if b.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	for i := 0; i < 2; i++ {
		if err := <-results; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parked request returned %v, want deadline exceeded", err)
		}
	}
}

// TestBatcherSwap: engines hot-swap atomically under load with zero downtime,
// post-swap answers come from the new model, and the displaced engine is
// not retained (a reload must not leave two models resident).
func TestBatcherSwap(t *testing.T) {
	e1, p1, test := buildEngine(t, nil)
	// An engine holds its source pipeline; the engine itself is cyclic (its
	// freelists call its methods), and a finalizer on a cycle never runs.
	collected := make(chan struct{})
	runtime.SetFinalizer(p1, func(*core.Pipeline) { close(collected) })
	// A different seed gives a genuinely different model (different
	// projection and class hypervectors).
	e2, p2, _ := buildEngine(t, func(c *core.Config) { c.Seed = 99 })
	want1 := p1.PredictDirect(test.Images)
	want2 := p2.PredictDirect(test.Images)
	differs := false
	for i := range want1 {
		if want1[i] != want2[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("swap test needs two models that disagree somewhere")
	}

	b, err := New(e1, Options{MaxDelay: -1, QueueCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Shape-mismatched engines must be refused.
	if err := b.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}

	// Background load across the swap: every answer must match either the
	// old or the new model exactly (a batch never straddles engines, but a
	// goroutine doesn't know which side of the swap it landed on).
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g + 4*it) % test.Len()
				got, err := b.Predict(context.Background(), sample(test, i))
				if err != nil {
					errs <- err
					return
				}
				if got != want1[i] && got != want2[i] {
					errs <- errors.New("serve: prediction matches neither engine across swap")
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := b.Swap(e2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Steady state after the swap: answers are the new model's.
	for i := 0; i < 8; i++ {
		got, err := b.Predict(context.Background(), sample(test, i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want2[i] {
			t.Fatalf("post-swap sample %d: got %d want %d", i, got, want2[i])
		}
	}
	if b.Stats().Swaps != 1 {
		t.Fatalf("swap count %d", b.Stats().Swaps)
	}

	// The batcher held the last reference to the displaced engine.
	e1, p1 = nil, nil
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the displaced engine is still reachable after Swap")
		}
	}
}

// TestBatcherClose: close drains queued work, later admissions fail with
// ErrClosed, and Close is idempotent.
func TestBatcherClose(t *testing.T) {
	e, p, test := buildEngine(t, nil)
	want := p.PredictDirect(test.Images)
	b, err := New(e, Options{MaxBatch: 4, MaxDelay: 5 * time.Millisecond, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 12
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		i := i
		go func() {
			got, err := b.Predict(context.Background(), sample(test, i))
			if err == nil && got != want[i] {
				err = errRouted
			}
			results <- err
		}()
	}
	// Give the requests a moment to enqueue, then drain.
	time.Sleep(5 * time.Millisecond)
	b.Close()
	b.Close() // idempotent
	timeout := time.After(30 * time.Second)
	okOrClosed := 0
	for i := 0; i < inflight; i++ {
		select {
		case err := <-results:
			// A request that raced Close may be refused; one that made it in
			// must be answered correctly.
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatal(err)
			}
			okOrClosed++
		case <-timeout:
			t.Fatal("requests still pending after Close returned")
		}
	}
	if _, err := b.Predict(context.Background(), sample(test, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Predict returned %v", err)
	}
}

// TestBatcherRequestValidation: malformed requests fail fast without
// touching the queue.
func TestBatcherRequestValidation(t *testing.T) {
	e, _, test := buildEngine(t, nil)
	b, err := New(e, Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.PredictBatch(context.Background(), sample(test, 0), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := b.PredictBatch(context.Background(), sample(test, 0), 5); err == nil {
		t.Fatal("n>MaxBatch accepted")
	}
	if _, err := b.PredictBatch(context.Background(), sample(test, 0)[:10], 1); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil engine accepted")
	}
}
