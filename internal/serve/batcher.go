// Package serve is the concurrent serving front end over the frozen
// inference engine: it coalesces many small independent requests into
// engine-sized micro-batches, so callers issuing single-sample predictions
// get the batched-GEMM throughput the kernels were built for (the
// per-request path repays the projection's B-panel packing on every call;
// one 64-sample flush repays it once).
//
// The design is a classic dynamic batcher (TF-Serving/Triton style) with the
// failure modes of open deployment handled explicitly:
//
//   - bounded admission queue: when the queue is full, Predict fails fast
//     with ErrOverloaded instead of stacking unbounded latency;
//   - lingering only for a companion that can come: Server announces each
//     /predict request as its handler starts, and a batch made only of
//     announced requests flushes as soon as the queue is empty and no
//     announced request is on its way, instead of waiting out MaxDelay;
//   - per-request contexts: a canceled or expired request is dropped at
//     flush-assembly time without stalling the rest of its batch;
//   - graceful drain: Close stops admissions, flushes everything queued, and
//     only then returns;
//   - atomic hot-swap: Swap installs a newly compiled engine between flushes
//     with zero downtime, so retraining never interrupts serving.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// ErrOverloaded is returned when the admission queue is full. Callers should
// shed load (HTTP 429) rather than retry immediately.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: batcher closed")

// Options tune the batcher. The zero value asks for defaults everywhere.
type Options struct {
	// MaxBatch is the flush size threshold in samples. Default: the engine's
	// chunk size (the batch its arenas were sized for).
	MaxBatch int
	// MaxDelay bounds how long the oldest queued request may wait before its
	// (partial) batch is flushed. The deadline is measured from that
	// request's enqueue time, so a queue that filled while a previous batch
	// computed flushes immediately. Within it the batcher lingers only while
	// a companion can come: Server announces each /predict request when its
	// handler starts, before decoding, and a batch made only of announced
	// requests flushes as soon as the queue is empty and no announced request
	// is still on its way to the queue. Direct Predict and PredictBatch
	// callers announce nothing, so a batch holding one of their requests
	// lingers until the deadline. Negative means greedy mode: flush as soon
	// as the queue drains, forming batches only from requests that are
	// already waiting. Default (0): 1ms.
	MaxDelay time.Duration
	// QueueCap is the admission queue capacity in requests; admissions
	// beyond it fail with ErrOverloaded. Default: 4×MaxBatch.
	QueueCap int
}

func (o Options) withDefaults(e *engine.Engine) Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = e.ChunkSize()
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = time.Millisecond
	}
	if o.MaxDelay < 0 {
		o.MaxDelay = 0 // greedy
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
	return o
}

// request is one caller's unit of work while it sits in the queue. The
// caller owns data and preds; the flush loop writes preds and then signals
// done (buffered, never blocking), so an abandoned request cannot stall it.
type request struct {
	ctx   context.Context
	data  []float32
	n     int
	preds []int
	enq   time.Time
	done  chan error
	// announced: counted in Batcher.pending until the flush loop receives it.
	announced bool
}

// Batcher coalesces concurrent prediction requests into micro-batches for a
// frozen engine. Safe for concurrent use by any number of goroutines; one
// internal flush loop owns the staging buffers and talks to the engine.
type Batcher struct {
	opts      Options
	inShape   [3]int
	sampleLen int

	eng atomic.Pointer[engine.Engine]

	mu     sync.RWMutex // guards closed against concurrent enqueues
	closed bool
	queue  chan *request
	// pending counts announced requests the flush loop has not received:
	// Server.handlePredict adds one at entry, and the loop takes it off on
	// receipt, or the handler does if its request never reaches the queue.
	// While it is 0, no announced companion is on its way.
	pending atomic.Int64

	loopDone chan struct{}
	met      *Metrics

	// Flush-loop-owned state.
	staging []float32
	preds   []int
	live    []*request
}

// New wraps a compiled engine in a batching front end and starts its flush
// loop. Call Close to drain and stop it.
func New(e *engine.Engine, opts Options) (*Batcher, error) {
	if e == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	opts = opts.withDefaults(e)
	b := &Batcher{
		opts:      opts,
		inShape:   e.InShape(),
		sampleLen: e.SampleLen(),
		queue:     make(chan *request, opts.QueueCap),
		loopDone:  make(chan struct{}),
		met:       newMetrics(),
		staging:   make([]float32, opts.MaxBatch*e.SampleLen()),
		preds:     make([]int, opts.MaxBatch),
		live:      make([]*request, 0, opts.MaxBatch),
	}
	b.eng.Store(e)
	go b.loop()
	return b, nil
}

// Engine returns the currently installed engine.
func (b *Batcher) Engine() *engine.Engine { return b.eng.Load() }

// Options returns the batcher's effective (defaulted) options.
func (b *Batcher) Options() Options { return b.opts }

// Stats snapshots the batcher's metrics.
func (b *Batcher) Stats() Snapshot { return b.met.snapshot(len(b.queue)) }

// Swap atomically installs a new engine — typically one recompiled after
// retraining — with zero downtime: the in-flight flush finishes on the old
// engine, the next flush uses the new one. The new engine must accept the
// same input shape; batches never straddle two engines, so predictions stay
// internally consistent per request. The displaced engine is not retained:
// once its last flush returns, its weights and worker arenas are garbage.
func (b *Batcher) Swap(e *engine.Engine) error {
	if e == nil {
		return fmt.Errorf("serve: Swap with nil engine")
	}
	if e.InShape() != b.inShape {
		return fmt.Errorf("serve: Swap engine input shape %v, batcher serves %v", e.InShape(), b.inShape)
	}
	b.eng.Store(e)
	b.met.swaps.Add(1)
	return nil
}

// Predict classifies one sample (flat [C·H·W] floats), blocking until its
// micro-batch is served, the context is done, or admission is refused.
func (b *Batcher) Predict(ctx context.Context, sample []float32) (int, error) {
	preds, err := b.PredictBatch(ctx, sample, 1)
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// PredictBatch classifies n samples held flat in data (length n·C·H·W). The
// request rides the same micro-batching path as single samples; n must not
// exceed MaxBatch (callers with genuinely large batches should use the
// engine directly — it batches internally). data must not be mutated until
// the call returns — and not after it returns ctx's error either: the flush
// loop may still be copying from it then (see flush).
func (b *Batcher) PredictBatch(ctx context.Context, data []float32, n int) ([]int, error) {
	return b.predict(ctx, data, n, nil)
}

// predict is PredictBatch for a caller that may have announced its request
// in pending. A non-nil queued marks the request announced and is set once
// it is in the queue, after which the flush loop takes it off pending; until
// then that is the caller's job.
func (b *Batcher) predict(ctx context.Context, data []float32, n int, queued *bool) ([]int, error) {
	if n < 1 || n > b.opts.MaxBatch {
		return nil, fmt.Errorf("serve: request of %d samples (want 1..%d)", n, b.opts.MaxBatch)
	}
	if len(data) != n*b.sampleLen {
		return nil, fmt.Errorf("serve: request data length %d, want %d samples × %d floats", len(data), n, b.sampleLen)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req := &request{
		ctx:   ctx,
		data:  data,
		n:     n,
		preds: make([]int, n),
		enq:   time.Now(),
		done:  make(chan error, 1),

		announced: queued != nil,
	}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
		if queued != nil {
			*queued = true
		}
	default:
		b.mu.RUnlock()
		b.met.rejected.Add(1)
		return nil, ErrOverloaded
	}
	b.met.requests.Add(1)
	b.met.samples.Add(int64(n))

	select {
	case err := <-req.done:
		if err != nil {
			return nil, err
		}
		return req.preds, nil
	case <-ctx.Done():
		// The flush loop will notice the dead context at assembly time, or
		// compute a result nobody reads; either way it never blocks on us.
		return nil, ctx.Err()
	}
}

// Close stops admitting requests, drains and serves everything already
// queued, waits for the flush loop to exit, and returns. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	<-b.loopDone
}

// loop is the flush loop: block for one request, gather companions up to the
// size threshold or the oldest request's delay deadline, flush, repeat. A
// request that would overflow the size threshold is carried into the next
// batch instead of splitting. When the queue runs dry, a batch made only of
// announced requests flushes at once if none is still on its way (pending is
// 0): no companion can come, so lingering would only add latency. A direct
// caller's request in the batch keeps the linger, since its companions are
// not announced.
func (b *Batcher) loop() {
	defer close(b.loopDone)
	var carry *request
	var timer *time.Timer
	for {
		first := carry
		carry = nil
		if first == nil {
			var ok bool
			first, ok = <-b.queue
			if !ok {
				return
			}
			b.received(first)
		}
		batch := b.live[:0]
		batch = append(batch, first)
		total := first.n
		allAnnounced := first.announced
		why := &b.met.flushFull

	gather:
		for total < b.opts.MaxBatch {
			var r *request
			var ok bool
			// Greedily take whatever is already waiting.
			select {
			case r, ok = <-b.queue:
			default:
				// Queue momentarily empty: linger until the oldest request's
				// deadline for late companions, unless none can come. In
				// greedy mode (MaxDelay 0) or past the deadline, flush what
				// we have.
				if allAnnounced && b.pending.Load() == 0 {
					why = &b.met.flushIdle
					break gather
				}
				wait := b.opts.MaxDelay - time.Since(first.enq)
				if wait <= 0 {
					why = &b.met.flushDeadline
					break gather
				}
				if timer == nil {
					timer = time.NewTimer(wait)
				} else {
					timer.Reset(wait)
				}
				select {
				case r, ok = <-b.queue:
					if !timer.Stop() {
						<-timer.C
					}
				case <-timer.C:
					why = &b.met.flushDeadline
					break gather
				}
			}
			if !ok {
				why = &b.met.flushIdle // closed: nothing more can come
				break gather
			}
			b.received(r)
			if total+r.n > b.opts.MaxBatch {
				carry = r
				break gather
			}
			batch = append(batch, r)
			total += r.n
			allAnnounced = allAnnounced && r.announced
		}
		b.flush(batch, why)
	}
}

// received takes a request the loop has just received off pending.
func (b *Batcher) received(r *request) {
	if r.announced {
		b.pending.Add(-1)
	}
}

// flush assembles one staging batch from the gathered requests — dropping
// any whose context died while queued — runs the engine, and fans results
// back to each request's future in input order. why is the flush-reason
// counter the gather ended on; it counts only flushes that reach the engine.
func (b *Batcher) flush(batch []*request, why *atomic.Int64) {
	live := batch[:0]
	off := 0
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			// The caller is gone (or going): hand it its context error and
			// keep its samples out of the staging batch entirely.
			b.met.canceled.Add(1)
			r.done <- err
			continue
		}
		copy(b.staging[off*b.sampleLen:], r.data)
		off += r.n
		live = append(live, r)
	}
	if off == 0 {
		return
	}
	imgs := tensor.FromSlice(b.staging[:off*b.sampleLen], off, b.inShape[0], b.inShape[1], b.inShape[2])
	preds := b.preds[:off]
	err := b.eng.Load().PredictChecked(imgs, preds)
	b.met.observeBatch(off)
	why.Add(1)

	now := time.Now()
	off = 0
	for _, r := range live {
		if err != nil {
			b.met.errors.Add(1)
			r.done <- err
		} else {
			copy(r.preds, preds[off:off+r.n])
			b.met.observe(now.Sub(r.enq), r.n)
			r.done <- nil
		}
		off += r.n
	}
}
