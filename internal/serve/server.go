package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// Server exposes a Batcher over HTTP:
//
//	POST /predict  — JSON {"inputs": [[...C·H·W floats...], ...]}
//	                 → {"classes": [...], "ms": ...}; or, with Content-Type
//	                 application/octet-stream, a length-prefixed binary
//	                 frame: uint32 LE sample count, then count·C·H·W
//	                 float32 LE — answered as uint32 LE count then count
//	                 uint32 LE class indices. Both are read and written by
//	                 the codec (codec.go: grammar, limits, input policy).
//	GET  /healthz  — 200 "ok" while the batcher accepts work.
//	GET  /metrics  — JSON Snapshot plus engine facts (shape, D, classes,
//	                 chunk size, packed model bytes).
//
// Error mapping: malformed or non-finite input 400, body over the size limit
// 413, admission-queue overload 429 (shed, don't queue), request timeout 504,
// draining/closed 503, a recovered engine panic 500.
type Server struct {
	b *Batcher
	// Timeout bounds one request's total time in the front end (queue wait +
	// compute). Zero means no server-imposed timeout.
	timeout time.Duration
	// codec decodes and encodes /predict.
	codec codec
	// stage-timing cache for /metrics: one measured breakdown per compiled
	// engine, so hot-swaps re-measure and steady-state polls stay free.
	stMu    sync.Mutex
	stEng   *engine.Engine
	stTimes []engine.StageTime
}

// NewServer wraps a batcher in the HTTP front end. timeout ≤ 0 disables the
// per-request deadline.
func NewServer(b *Batcher, timeout time.Duration) *Server {
	return &Server{
		b:       b,
		timeout: timeout,
		codec:   newCodec(b.sampleLen, b.opts.MaxBatch),
	}
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// handlePredict is POST /predict: decode the body by content type, hand the
// samples to the batcher, encode the labels the same way. The request is
// announced to the batcher (Batcher.pending) before its body is read, so a
// batch it could join lingers for it while it decodes; a request that never
// reaches the queue takes its announcement back on the way out.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	body := http.MaxBytesReader(w, r.Body, s.codec.maxBody())
	sc := scratchPool.Get().(*reqScratch)
	s.b.pending.Add(1)
	queued := false
	// A batcher whose caller gave up may still be reading sc.data, so the
	// scratch of a request whose context ended goes to the collector instead.
	defer func() {
		if !queued {
			s.b.pending.Add(-1)
		}
		if ctx.Err() == nil {
			scratchPool.Put(sc)
		}
	}()

	binaryFrame := r.Header.Get("Content-Type") == "application/octet-stream"
	var n int
	var err error
	if binaryFrame {
		n, err = s.codec.readFrame(body, sc)
	} else {
		n, err = s.codec.decodeInputs(body, sc)
	}
	if err != nil {
		decodeError(w, err)
		return
	}
	preds, err := s.b.predict(ctx, sc.data, n, &queued)
	if err != nil {
		s.fail(w, err)
		return
	}
	if binaryFrame {
		w.Header().Set("Content-Type", "application/octet-stream")
		sc.out = appendLabelFrame(sc.out[:0], preds)
	} else {
		w.Header().Set("Content-Type", "application/json")
		sc.out = appendPredictResponse(sc.out[:0], preds, float64(time.Since(start).Microseconds())/1e3)
	}
	w.Write(sc.out)
}

// fail maps batcher errors to HTTP statuses.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), 499) // client closed request
	case errors.Is(err, engine.ErrInternal):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// healthResponse is liveness plus the facts a client needs to size its
// requests. The version is a hex string (uint64 does not survive JSON number
// precision).
type healthResponse struct {
	Status       string `json:"status"`
	ModelVersion string `json:"model_version"`
	Classes      int    `json:"classes"`
	SampleLen    int    `json:"sample_floats"`
	MaxBatch     int    `json:"max_batch"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.b.mu.RLock()
	closed := s.b.closed
	s.b.mu.RUnlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	e := s.b.Engine()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthResponse{
		Status:       "ok",
		ModelVersion: fmt.Sprintf("%016x", e.ModelVersion()),
		Classes:      e.Classes(),
		SampleLen:    e.SampleLen(),
		MaxBatch:     s.b.opts.MaxBatch,
	})
}

// metricsResponse joins the batcher snapshot with the engine facts an
// operator needs to size clients and the batcher itself.
type metricsResponse struct {
	Snapshot
	Engine engineFacts `json:"engine"`
}

// engineFacts: SplitFloor and SplitMin are engine.SplitRule — a flush of at
// least SplitMin images is cut over every core, SplitFloor extractor MACs or
// more to a part.
type engineFacts struct {
	InShape      [3]int   `json:"in_shape"`
	SampleLen    int      `json:"sample_floats"`
	D            int      `json:"d"`
	ModelVersion string   `json:"model_version"`
	Classes      int      `json:"classes"`
	ChunkSize    int      `json:"chunk_size"`
	SplitFloor   int64    `json:"split_floor_macs"`
	SplitMin     int      `json:"split_min_batch"`
	ArenaBytes   int64    `json:"arena_bytes"`
	ModelBytes   int64    `json:"model_bytes"`
	Stages       []string `json:"stages"`
	// StageTimes is the measured batch-1 wall-time breakdown per pipeline
	// stage, with per-layer / per-fused-block sub-steps where the stage can
	// attribute them (see engine.Engine.TimeStages). Measured once per
	// compiled engine on a synthetic sample and cached.
	StageTimes []engine.StageTime `json:"stage_times,omitempty"`
	MaxBatch   int                `json:"max_batch"`
	MaxDelayUs int64              `json:"max_delay_us"`
	QueueCap   int                `json:"queue_cap"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.b.Engine()
	floor, minBatch := e.SplitRule()
	resp := metricsResponse{
		Snapshot: s.b.Stats(),
		Engine: engineFacts{
			InShape:      e.InShape(),
			SampleLen:    e.SampleLen(),
			D:            e.Dim(),
			ModelVersion: fmt.Sprintf("%016x", e.ModelVersion()),
			Classes:      e.Classes(),
			ChunkSize:    e.ChunkSize(),
			SplitFloor:   floor,
			SplitMin:     minBatch,
			ArenaBytes:   e.ArenaBytes(),
			ModelBytes:   e.ModelBytes(),
			Stages:       e.Stages(),
			StageTimes:   s.stageTimes(e),
			MaxBatch:     s.b.opts.MaxBatch,
			MaxDelayUs:   s.b.opts.MaxDelay.Microseconds(),
			QueueCap:     s.b.opts.QueueCap,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// stageTimes returns the cached per-stage timing breakdown for e, measuring
// it on first request (and again after an engine hot-swap) against one
// synthetic zero sample — batch 1 is the latency-critical serving shape, and
// compute cost does not depend on pixel values.
func (s *Server) stageTimes(e *engine.Engine) []engine.StageTime {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	if s.stEng == e {
		return s.stTimes
	}
	in := e.InShape()
	ts, err := e.TimeStages(tensor.New(1, in[0], in[1], in[2]), 3)
	if err != nil {
		return nil
	}
	s.stEng, s.stTimes = e, ts
	return ts
}
