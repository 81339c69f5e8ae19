package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// RouterServer exposes a Router over the same client-facing HTTP surface a
// single nshd-serve process offers, so callers cannot tell a sharded
// cluster from one box:
//
//	POST /predict  — JSON {"inputs": [...]} or binary frame, through the
//	                 same codec as the single-process /predict (codec.go),
//	                 so grammar, limits, input policy and statuses are one.
//	GET  /healthz  — JSON: routable target version plus per-slot replica
//	                 health; 200 only while every shard slot is servable.
//	GET  /metrics  — JSON router counters and slot states.
type RouterServer struct {
	r     *Router
	codec codec
}

// NewRouterServer wraps a router in its HTTP front end.
func NewRouterServer(r *Router) *RouterServer {
	return &RouterServer{r: r, codec: newCodec(r.sampleLen, r.maxBatch)}
}

// Handler returns the route mux.
func (s *RouterServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *RouterServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.codec.servePredict(r.Context(), w, r, s.r.Predict, s.fail)
}

// fail maps router errors: a shard slice being unavailable is a 503 (the
// cluster is degraded — clients should back off and retry), everything else
// a 400.
func (s *RouterServer) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, ErrShardUnavailable):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// routerHealth is the /healthz body: the pinned version and each slot's
// replica states.
type routerHealth struct {
	Status  string       `json:"status"`
	Version string       `json:"model_version"`
	Slots   []slotHealth `json:"slots"`
}

type slotHealth struct {
	Lo       int             `json:"shard_lo"`
	Hi       int             `json:"shard_hi"`
	Replicas []replicaHealth `json:"replicas"`
}

type replicaHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Ejected bool   `json:"ejected"`
	Version string `json:"model_version"`
}

func (s *RouterServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := routerHealth{
		Status:  "ok",
		Version: fmt.Sprintf("%016x", s.r.Version()),
	}
	now := time.Now().UnixNano()
	degraded := false
	for _, sl := range s.r.slots {
		sh := slotHealth{Lo: sl.lo, Hi: sl.hi}
		slotOK := false
		for _, rep := range sl.replicas {
			rh := replicaHealth{
				Addr:    rep.addr,
				Healthy: rep.healthy.Load(),
				Ejected: rep.ejectedUntil.Load() > now,
				Version: fmt.Sprintf("%016x", rep.cur.Load()),
			}
			if rh.Healthy {
				slotOK = true
			}
			sh.Replicas = append(sh.Replicas, rh)
		}
		if !slotOK {
			degraded = true
		}
		h.Slots = append(h.Slots, sh)
	}
	w.Header().Set("Content-Type", "application/json")
	if degraded {
		h.Status = "degraded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// routerStats is the /metrics body.
type routerStats struct {
	Requests int64  `json:"requests"`
	Samples  int64  `json:"samples"`
	Errors   int64  `json:"errors"`
	Retries  int64  `json:"retries"`
	Hedges   int64  `json:"hedges"`
	Ejects   int64  `json:"ejects"`
	Flips    int64  `json:"version_flips"`
	Version  string `json:"model_version"`
	Shards   int    `json:"shards"`
	FullD    int    `json:"full_d"`
	Classes  int    `json:"classes"`
	MaxBatch int    `json:"max_batch"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() map[string]int64 {
	return map[string]int64{
		"requests": r.met.requests.Load(),
		"samples":  r.met.samples.Load(),
		"errors":   r.met.errors.Load(),
		"retries":  r.met.retries.Load(),
		"hedges":   r.met.hedges.Load(),
		"ejects":   r.met.ejects.Load(),
		"flips":    r.met.flips.Load(),
	}
}

func (s *RouterServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := routerStats{
		Requests: s.r.met.requests.Load(),
		Samples:  s.r.met.samples.Load(),
		Errors:   s.r.met.errors.Load(),
		Retries:  s.r.met.retries.Load(),
		Hedges:   s.r.met.hedges.Load(),
		Ejects:   s.r.met.ejects.Load(),
		Flips:    s.r.met.flips.Load(),
		Version:  fmt.Sprintf("%016x", s.r.Version()),
		Shards:   len(s.r.slots),
		FullD:    s.r.fullD,
		Classes:  s.r.k,
		MaxBatch: s.r.maxBatch,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
