package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"nshd/internal/serve"
	"nshd/internal/tensor"
)

// opFunc performs request number seq for one client and returns nil only
// when every returned label equals the reference label.
type opFunc func(client, seq int) error

// loadResult is everything a load phase observed.
type loadResult struct {
	samples   []sample // successful operations only: a failure has no latency
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	start     time.Time
	from, to  time.Duration // the measured interval, since start
}

// stats summarizes the measured interval at reference speed.
func (r loadResult) stats(cal *calibrator) loadStats {
	return summarize(r.samples, r.from, r.to, func(lo, hi time.Duration) float64 {
		return cal.factor(r.start.Add(lo), r.start.Add(hi))
	})
}

// merge adds another phase's counts (not its samples) to r.
func (r *loadResult) merge(o loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// runLoad is the closed-loop generator: each of the clients sends its next
// request only after the previous reply, for warm+dur; operations that end
// during the first warm are discarded. Client c sends requests c, c+clients,
// c+2·clients, … of the seeded sequence, so a run's request order depends
// only on --seed. Between operations, at most every calEvery, a client takes
// one calibration sample (calib.go).
func runLoad(cal *calibrator, clients, images int, warm, dur time.Duration, op opFunc) loadResult {
	type perClient struct {
		samples   []sample
		attempted int
		failed    int
		errs      []string
	}
	out := make([]perClient, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc := &out[c]
			var lastCal time.Time
			for seq := c; time.Since(start) < warm+dur; seq += clients {
				t0 := time.Now()
				err := op(c, seq)
				t1 := time.Now()
				if t1.Sub(lastCal) >= calEvery {
					cal.sample()
					lastCal = t1
				}
				pc.attempted++
				if err != nil {
					pc.failed++
					if len(pc.errs) < 3 {
						pc.errs = append(pc.errs, err.Error())
					}
					continue
				}
				pc.samples = append(pc.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0), images: images})
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{start: start, from: warm, to: warm + dur}
	for _, pc := range out {
		res.samples = append(res.samples, pc.samples...)
		res.attempted += pc.attempted
		res.failed += pc.failed
		res.errs = append(res.errs, pc.errs...)
	}
	return res
}

// requests is the seeded request sequence of a fixture: which pool slot each
// request reads, with the wire bodies of the HTTP kinds encoded once up
// front (the client's encoder is not the system under test).
type requests struct {
	f      *fixture
	order  []int            // slot per sequence number, cycled
	imgs   []*tensor.Tensor // per slot: a view of the pool, so an engine call allocates nothing here
	bodies [][]byte         // per slot; nil for the engine kinds
	ctype  string
}

func newRequests(f *fixture, seed int64) *requests {
	w := f.w
	r := &requests{f: f, order: make([]int, 4096)}
	rng := rand.New(rand.NewSource(seed))
	for i := range r.order {
		r.order[i] = rng.Intn(w.slots())
	}
	r.imgs = make([]*tensor.Tensor, w.slots())
	for s := range r.imgs {
		r.imgs[s] = f.images(r.at(s), w.PerRequest)
	}
	sl := f.e.SampleLen()
	switch w.Kind {
	case kindHTTPBinary:
		r.ctype = "application/octet-stream"
		r.bodies = make([][]byte, w.slots())
		for s := range r.bodies {
			data := r.data(s)
			b := make([]byte, 4+4*len(data))
			binary.LittleEndian.PutUint32(b, uint32(w.PerRequest))
			for i, v := range data {
				binary.LittleEndian.PutUint32(b[4+4*i:], math.Float32bits(v))
			}
			r.bodies[s] = b
		}
	case kindHTTPJSON:
		r.ctype = "application/json"
		r.bodies = make([][]byte, w.slots())
		for s := range r.bodies {
			data := r.data(s)
			b := []byte(`{"inputs":[`)
			for i := 0; i < w.PerRequest; i++ {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, '[')
				for j, v := range data[i*sl : (i+1)*sl] {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
				}
				b = append(b, ']')
			}
			r.bodies[s] = append(b, "]}"...)
		}
	}
	return r
}

func (r *requests) slot(seq int) int { return r.order[seq%len(r.order)] }

// at is the pool index of a slot's first image.
func (r *requests) at(slot int) int { return slot * r.f.w.stride() }

func (r *requests) data(slot int) []float32 {
	sl := r.f.e.SampleLen()
	return r.f.pool.Images.Data[r.at(slot)*sl : (r.at(slot)+r.f.w.PerRequest)*sl]
}

func (r *requests) want(slot int) []int {
	return r.f.ref[r.at(slot) : r.at(slot)+r.f.w.PerRequest]
}

func checkLabels(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d labels, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("label %d is %d, reference says %d", i, got[i], want[i])
		}
	}
	return nil
}

// decodeLabels reads a /predict response body of either codec.
func decodeLabels(ctype string, body []byte) ([]int, error) {
	if ctype == "application/json" {
		var resp struct {
			Classes []int `json:"classes"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("decode response: %w", err)
		}
		return resp.Classes, nil
	}
	if len(body) < 4 {
		return nil, errors.New("short binary response")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body) != 4+4*n {
		return nil, fmt.Errorf("binary response of %d bytes for %d labels", len(body), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(body[4+4*i:]))
	}
	return out, nil
}

// engineOp is the operation of the no-HTTP kinds, and the innermost replay
// boundary of the HTTP kinds: one Engine.PredictInto per request.
func (r *requests) engineOp() opFunc {
	w := r.f.w
	preds := make([][]int, w.Clients)
	for c := range preds {
		preds[c] = make([]int, w.PerRequest)
	}
	return func(c, seq int) error {
		s := r.slot(seq)
		if err := r.f.e.PredictInto(r.imgs[s], preds[c]); err != nil {
			return err
		}
		return checkLabels(preds[c], r.want(s))
	}
}

// batcherOp replays the requests at the Batcher.PredictBatch boundary.
func (r *requests) batcherOp(b *serve.Batcher) opFunc {
	return func(c, seq int) error {
		s := r.slot(seq)
		got, err := b.PredictBatch(context.Background(), r.data(s), r.f.w.PerRequest)
		if err != nil {
			return err
		}
		return checkLabels(got, r.want(s))
	}
}

// handlerOp replays the requests at the handler boundary: the same decode,
// batcher and encode as over HTTP, without the socket and net/http's
// connection handling.
func (r *requests) handlerOp(h http.Handler) opFunc {
	return func(c, seq int) error {
		s := r.slot(seq)
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(r.bodies[s]))
		req.Header.Set("Content-Type", r.ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		got, err := decodeLabels(r.ctype, rec.Body.Bytes())
		if err != nil {
			return err
		}
		return checkLabels(got, r.want(s))
	}
}

// spanHeader carries the client span's id to the handler middleware, so the
// two spans of one request share it.
const spanHeader = "X-Bench-Span"

// httpOp is the operation of the HTTP kinds: one POST per request on the
// client's single keep-alive connection. A non-200 status (429/503/504
// included) or a label that differs from the reference is a failure. With a
// tracer, each request records a client.request span and sends its id.
func (r *requests) httpOp(url string, tr *tracer) (opFunc, func()) {
	clients := make([]*http.Client, r.f.w.Clients)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	op := func(c, seq int) error {
		s := r.slot(seq)
		req, err := http.NewRequest(http.MethodPost, url+"/predict", bytes.NewReader(r.bodies[s]))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", r.ctype)
		var id int64
		var t0 time.Duration
		if tr != nil {
			id, t0 = tr.begin()
			req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		}
		resp, err := clients[c].Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if tr != nil {
			tr.end(id, 0, "client.request", t0)
		}
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		got, err := decodeLabels(r.ctype, body)
		if err != nil {
			return err
		}
		return checkLabels(got, r.want(s))
	}
	return op, func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
}

// server is an in-process nshd-serve: a Batcher over the fixture's engine
// behind serve.Server's handler on a loopback port.
type server struct {
	b       *serve.Batcher
	handler http.Handler // serve.Server's own mux
	srv     *http.Server
	done    chan struct{}
	url     string
}

// startServer listens on 127.0.0.1:0. wrap, when non-nil, is put around the
// handler (the traced run's middleware).
func startServer(f *fixture, wrap func(http.Handler) http.Handler) (*server, error) {
	b, err := serve.New(f.e, serve.Options{MaxDelay: time.Duration(f.w.MaxDelayUs) * time.Microsecond})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Close()
		return nil, err
	}
	s := &server{b: b, handler: serve.NewServer(b, 5*time.Second).Handler(), done: make(chan struct{})}
	h := s.handler
	if wrap != nil {
		h = wrap(h)
	}
	s.srv = &http.Server{Handler: h}
	s.url = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed after stop
	}()
	return s, nil
}

// stop closes the listener and every connection, waits for the accept loop
// to return, then drains the batcher.
func (s *server) stop() {
	s.srv.Close()
	<-s.done
	s.b.Close()
}
