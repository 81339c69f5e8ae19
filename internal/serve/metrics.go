package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"nshd/internal/tensor"
)

// latBuckets is the number of power-of-two latency histogram buckets. Bucket
// i counts requests with latency in [2^(i+12), 2^(i+13)) nanoseconds, i.e.
// the histogram spans ~4µs to ~17s; the last bucket absorbs the overflow.
const latBuckets = 23

// batchBuckets is the number of power-of-two batch-size histogram buckets:
// bucket i counts flushes of size in [2^i, 2^(i+1)), spanning 1 to ≥4096.
const batchBuckets = 13

// Metrics is the batcher's lock-free instrumentation: monotone counters and
// two power-of-two histograms, all updated with atomics so the flush loop and
// many request goroutines never serialize on a stats lock.
type Metrics struct {
	start time.Time

	requests atomic.Int64 // admitted requests
	samples  atomic.Int64 // admitted samples (a request may carry a small batch)
	served   atomic.Int64 // samples answered successfully
	rejected atomic.Int64 // admissions refused with ErrOverloaded
	canceled atomic.Int64 // requests dropped at flush time (context done)
	errors   atomic.Int64 // requests failed by an engine error
	batches  atomic.Int64 // engine flushes
	swaps    atomic.Int64 // hot engine swaps

	latency [latBuckets]atomic.Int64
	batch   [batchBuckets]atomic.Int64
}

func newMetrics() *Metrics { return &Metrics{start: time.Now()} }

func latBucket(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns < 1<<12 {
		return 0
	}
	b := bits.Len64(ns) - 13
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

func batchBucket(n int) int {
	if n < 1 {
		return 0
	}
	b := bits.Len64(uint64(n)) - 1
	if b >= batchBuckets {
		b = batchBuckets - 1
	}
	return b
}

// observe records one answered request: its end-to-end latency (queue wait +
// batch compute) and its sample count.
func (m *Metrics) observe(lat time.Duration, samples int) {
	m.served.Add(int64(samples))
	m.latency[latBucket(lat)].Add(1)
}

func (m *Metrics) observeBatch(samples int) {
	m.batches.Add(1)
	m.batch[batchBucket(samples)].Add(1)
}

// quantile returns the upper bound of the histogram bucket where the
// cumulative count crosses q (0 < q ≤ 1), in the bucket's native unit.
func quantile(counts []int64, q float64, unitAt func(bucket int) float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return unitAt(i)
		}
	}
	return unitAt(len(counts) - 1)
}

// Snapshot is a point-in-time copy of the batcher's metrics, shaped for the
// /metrics endpoint and operator dashboards.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	// KernelISA is tensor.KernelISA: which GEMM kernels this process runs.
	KernelISA string `json:"kernel_isa"`

	Requests int64 `json:"requests"`
	Samples  int64 `json:"samples"`
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
	Errors   int64 `json:"errors"`
	Batches  int64 `json:"batches"`
	Swaps    int64 `json:"swaps"`

	// QPS is samples served per second over the batcher's whole uptime.
	QPS float64 `json:"qps"`
	// QueueDepth is the instantaneous admission-queue occupancy (requests).
	QueueDepth int `json:"queue_depth"`
	// MeanBatch is samples served per engine flush.
	MeanBatch float64 `json:"mean_batch"`
	// BatchP50 is the median flush size (upper bound of its 2^k bucket).
	BatchP50 float64 `json:"batch_p50"`

	// Latency quantiles are upper bounds of power-of-two buckets, so they
	// overestimate by at most 2×; they answer "is p99 milliseconds or
	// seconds", not microbenchmark questions.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// snapshot assembles a Snapshot; queueDepth is sampled by the caller (the
// batcher owns the queue).
func (m *Metrics) snapshot(queueDepth int) Snapshot {
	s := Snapshot{
		UptimeSec:  time.Since(m.start).Seconds(),
		KernelISA:  tensor.KernelISA(),
		Requests:   m.requests.Load(),
		Samples:    m.samples.Load(),
		Served:     m.served.Load(),
		Rejected:   m.rejected.Load(),
		Canceled:   m.canceled.Load(),
		Errors:     m.errors.Load(),
		Batches:    m.batches.Load(),
		Swaps:      m.swaps.Load(),
		QueueDepth: queueDepth,
	}
	if s.UptimeSec > 0 {
		s.QPS = float64(s.Served) / s.UptimeSec
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Served) / float64(s.Batches)
	}
	lat := make([]int64, latBuckets)
	for i := range lat {
		lat[i] = m.latency[i].Load()
	}
	latUpperMs := func(b int) float64 { return float64(uint64(1)<<(b+13)) / 1e6 }
	s.LatencyP50Ms = quantile(lat, 0.50, latUpperMs)
	s.LatencyP99Ms = quantile(lat, 0.99, latUpperMs)
	bat := make([]int64, batchBuckets)
	for i := range bat {
		bat[i] = m.batch[i].Load()
	}
	s.BatchP50 = quantile(bat, 0.50, func(b int) float64 { return float64(uint64(1) << (b + 1)) })
	return s
}
