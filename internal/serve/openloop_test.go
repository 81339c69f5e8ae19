package serve

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// openLoopEngine compiles the online_json benchmark's model: VGG16 cut at
// unit 8 over 3×32×32 inputs, 10 classes, D = 3000, F̂ = 100, chunk 32,
// packed scoring, bundled from 128 synthetic images. It returns the engine
// and 64 JSON bodies of 8 distinct images each.
func openLoopEngine(b *testing.B) (*engine.Engine, [][]byte) {
	b.Helper()
	train, pool := dataset.SynthCIFAR(dataset.SynthConfig{Classes: 10, Train: 128, Test: 512, Size: 32, Noise: 0.2, Seed: 1})
	zoo, err := cnn.Build("vgg16", tensor.NewRNG(1), 10)
	if err != nil {
		b.Fatal(err)
	}
	zoo.InShape = []int{3, 32, 32}
	cfg := core.DefaultConfig(8, 10)
	cfg.D, cfg.FHat, cfg.BatchSize, cfg.PackedInference = 3000, 100, 32, true
	p, err := core.New(zoo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, _, signed := p.Symbolize(p.ExtractFeatures(train.Images), false)
	p.HD.InitBundle(signed, train.Labels)
	e, err := engine.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	const perRequest = 8
	sl := e.SampleLen()
	bodies := make([][]byte, pool.Len()/perRequest)
	for i := range bodies {
		bodies[i] = jsonBody(pool.Images.Data[i*perRequest*sl:(i+1)*perRequest*sl], perRequest, sl)
	}
	return e, bodies
}

// openLoopServer is a Batcher with default options behind Server on a
// loopback port, and a client that keeps enough idle connections for every
// request in flight.
func openLoopServer(b *testing.B, e *engine.Engine) (*Batcher, string, *http.Client, func()) {
	bat, err := New(e, Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(bat, 10*time.Second).Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	return bat, srv.URL + "/predict", client, func() {
		client.CloseIdleConnections()
		srv.Close()
		bat.Close()
	}
}

// postBody sends one JSON /predict and returns its status; a transport
// error fails b.
func postBody(b *testing.B, client *http.Client, url string, body []byte) int {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// BenchmarkServeOpenLoop offers /predict, with the default batcher (MaxBatch
// the engine's chunk of 32, MaxDelay 1 ms), 8-image JSON requests whose
// arrivals are a Poisson process, each request its own client, at 50 % and
// 90 % of the saturating rate. That rate is measured first: requests per
// second that 8 closed-loop clients, each sending its next request as soon as
// it is answered, get through in one second. One op is one arrival; each
// row reports the mean batch the batcher flushed (mean_batch), the 50th and
// 99th percentile of an answered request's round trip (p50_ms, p99_ms), and
// the share of arrivals refused (shed: a 429 once the admission queue is
// full, which an open loop reaches whenever the box runs slower than it did
// while the saturating rate was measured).
func BenchmarkServeOpenLoop(b *testing.B) {
	e, bodies := openLoopEngine(b)

	_, url, client, stop := openLoopServer(b, e)
	const clients = 8
	var served sync.WaitGroup
	var count atomic.Int64
	deadline := time.Now().Add(time.Second)
	for c := 0; c < clients; c++ {
		served.Add(1)
		go func(c int) {
			defer served.Done()
			for i := c; time.Now().Before(deadline); i += clients {
				if postBody(b, client, url, bodies[i%len(bodies)]) == http.StatusOK {
					count.Add(1)
				}
			}
		}(c)
	}
	start := time.Now()
	served.Wait()
	saturated := float64(count.Load()) / time.Since(start).Seconds()
	stop()

	for _, load := range []struct {
		name  string
		share float64
	}{{"load50", 0.5}, {"load90", 0.9}} {
		b.Run(load.name, func(b *testing.B) {
			bat, url, client, stop := openLoopServer(b, e)
			defer stop()
			rate := load.share * saturated
			rng := rand.New(rand.NewSource(7))
			lat := make([]time.Duration, b.N)
			var shed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			next := time.Now()
			for i := 0; i < b.N; i++ {
				next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
				time.Sleep(time.Until(next))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					t0 := time.Now()
					if postBody(b, client, url, bodies[i%len(bodies)]) != http.StatusOK {
						shed.Add(1)
						lat[i] = -1
						return
					}
					lat[i] = time.Since(t0)
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(lat)
			lat = lat[shed.Load():]
			st := bat.Stats()
			b.ReportMetric(st.MeanBatch, "mean_batch")
			if len(lat) > 0 {
				b.ReportMetric(float64(lat[len(lat)/2])/1e6, "p50_ms")
				b.ReportMetric(float64(lat[len(lat)*99/100])/1e6, "p99_ms")
			}
			b.ReportMetric(float64(shed.Load())/float64(b.N), "shed")
			b.ReportMetric(rate, "offered_req/s")
		})
	}
}
