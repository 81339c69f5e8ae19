package serve

import (
	"context"
	"encoding/binary"
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
//	POST /partial  — the sharded data plane (wire.go).
//	GET  /healthz  — 200 "ok" while the batcher accepts work.
//	GET  /metrics  — JSON Snapshot plus engine facts (shape, D, classes,
//	                 chunk size, packed model bytes).
//
// Error mapping: malformed or non-finite input 400, body over the size limit
// 413, admission-queue overload 429 (shed, don't queue), request timeout 504,
// draining/closed 503.
type Server struct {
	b *Batcher
	// Timeout bounds one request's total time in the front end (queue wait +
	// compute). Zero means no server-imposed timeout.
	timeout time.Duration
	// codec decodes and encodes /predict, and reads the /partial frame.
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
	mux.HandleFunc("/partial", s.handlePartial)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.codec.servePredict(ctx, w, r, s.b.PredictBatch, s.fail)
}

// requestContext bounds one request's total time in the front end.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return r.Context(), func() {}
}

// handlePartial is the sharded data plane: a length-prefixed binary frame of
// samples in, this shard's raw partial scores out (see wire.go for the frame
// layout). The frame is read by the /predict codec — same bounds check on
// the length prefix, same input policy, same pooled scratch — so steady
// state allocates nothing per request.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if r.Header.Get("Content-Type") != "application/octet-stream" {
		http.Error(w, "application/octet-stream only", http.StatusUnsupportedMediaType)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, s.codec.maxBody())
	sc := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(sc) // PredictPartial computes on this goroutine: nothing outlives it
	var hdr [partialReqHeaderLen]byte
	n, err := s.codec.readFrame(body, sc, hdr[:])
	if err != nil {
		decodeError(w, err)
		return
	}
	version := binary.LittleEndian.Uint64(hdr[4:])

	if err := s.b.PredictPartial(ctx, sc.data, n, version, &sc.ps); err != nil {
		if errors.Is(err, ErrVersionGone) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		s.fail(w, err)
		return
	}
	if sc.ps.Scales != nil {
		// A compressed engine's sub-byte partials carry per-class scales the
		// wire frame has no field for; such engines are full-range anyway —
		// serve them through /predict.
		http.Error(w, "serve: sub-byte partial scores are not wire-servable; use /predict", http.StatusNotImplemented)
		return
	}
	served := version
	if served == 0 {
		served, _ = s.b.Versions()
	}
	sc.out = appendPartialResponse(sc.out[:0], &sc.ps, served)
	w.Header().Set("Content-Type", "application/octet-stream")
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
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// healthResponse is what a router's handshake and rollout poller consume:
// liveness plus the facts needed to validate a shard slot — its D-slice, the
// model version it is serving, and the pre-swap version it can still serve.
// Versions are hex strings (uint64 does not survive JSON number precision).
type healthResponse struct {
	Status       string `json:"status"`
	ModelVersion string `json:"model_version"`
	PrevVersion  string `json:"prev_version,omitempty"`
	ShardLo      int    `json:"shard_lo"`
	ShardHi      int    `json:"shard_hi"`
	FullD        int    `json:"full_d"`
	Classes      int    `json:"classes"`
	SampleLen    int    `json:"sample_floats"`
	MaxBatch     int    `json:"max_batch"`
	Packed       bool   `json:"packed"`
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
	cur, prev := s.b.Versions()
	lo, hi := e.Shard()
	h := healthResponse{
		Status:       "ok",
		ModelVersion: fmt.Sprintf("%016x", cur),
		ShardLo:      lo,
		ShardHi:      hi,
		FullD:        e.FullDim(),
		Classes:      e.Classes(),
		SampleLen:    e.SampleLen(),
		MaxBatch:     s.b.opts.MaxBatch,
		Packed:       e.PackedKernel(),
	}
	if prev != 0 {
		h.PrevVersion = fmt.Sprintf("%016x", prev)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
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
	ShardLo      int      `json:"shard_lo"`
	ShardHi      int      `json:"shard_hi"`
	FullD        int      `json:"full_d"`
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
			ShardLo:      func() int { lo, _ := e.Shard(); return lo }(),
			ShardHi:      func() int { _, hi := e.Shard(); return hi }(),
			FullD:        e.FullDim(),
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
