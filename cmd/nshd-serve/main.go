// Command nshd-serve exposes a trained NSHD pipeline as an HTTP prediction
// service, micro-batching concurrent requests through the frozen inference
// engine (internal/serve).
//
//	nshd-serve -model model.gob -addr :8080
//	nshd-serve -demo                          # self-contained demo model
//
// Endpoints: POST /predict (JSON {"inputs": [[...]]}, parsed in one streaming
// pass with no per-request allocation, or length-prefixed binary float32
// frames; NaN/±Inf inputs are a 400 on both, an oversized body a 413),
// GET /healthz, GET /metrics. SIGHUP reloads -model from disk and hot-swaps
// the engine with zero downtime; SIGINT/SIGTERM drain gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers debug handlers on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/serve"
	"nshd/internal/tensor"
)

func main() {
	log.SetFlags(0)
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		model    = flag.String("model", "", "trained pipeline snapshot (nshd-train -out)")
		demo     = flag.Bool("demo", false, "serve a small self-contained demo model (no snapshot needed)")
		packed   = flag.Bool("packed", true, "serve with the packed popcount classifier")
		maxBatch = flag.Int("max-batch", 0, "micro-batch size threshold (0 = engine chunk size)")
		maxDelay = flag.Duration("max-delay", time.Millisecond, "upper bound on the queue delay before flushing a partial batch, which flushes sooner once no /predict request is on its way (<0 = greedy)")
		queueCap = flag.Int("queue", 0, "admission queue capacity in requests (0 = 4×max-batch)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout (0 disables)")
		pprofArg = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); disabled when empty")
	)
	flag.Parse()
	startPprof(*pprofArg)

	if (*model == "") == !*demo {
		log.Fatal("exactly one of -model or -demo is required")
	}

	compile := func() (*engine.Engine, error) {
		var p *core.Pipeline
		var err error
		if *demo {
			p, err = demoPipeline()
		} else {
			p, err = core.Load(*model)
		}
		if err != nil {
			return nil, err
		}
		p.Cfg.PackedInference = *packed
		return engine.Compile(p)
	}

	eng, err := compile()
	if err != nil {
		log.Fatal(err)
	}
	b, err := serve.New(eng, serve.Options{
		MaxBatch: *maxBatch,
		MaxDelay: *maxDelay,
		QueueCap: *queueCap,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := b.Options()
	log.Printf("GEMM kernels: %s", tensor.KernelISA())
	log.Printf("serving %v → D=%d, %d classes, version %016x | chunk=%d max-batch=%d max-delay=%s queue=%d | model %d bytes, arena %d bytes/worker",
		eng.InShape(), eng.Dim(), eng.Classes(), eng.ModelVersion(), eng.ChunkSize(),
		opts.MaxBatch, opts.MaxDelay, opts.QueueCap, eng.ModelBytes(), eng.ArenaBytes())

	httpSrv := &http.Server{Addr: *addr, Handler: serve.NewServer(b, *timeout).Handler()}

	// SIGHUP: recompile from disk and hot-swap; serving never pauses.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			e2, err := compile()
			if err != nil {
				log.Printf("reload failed, keeping current engine: %v", err)
				continue
			}
			if err := b.Swap(e2); err != nil {
				log.Printf("swap refused: %v", err)
				continue
			}
			src := *model
			if *demo {
				src = "demo pipeline"
			}
			log.Printf("engine hot-swapped from %s", src)
		}
	}()

	// SIGINT/SIGTERM: stop accepting connections, drain the batcher, exit.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-stop
		log.Print("draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		b.Close()
		close(done)
	}()

	log.Printf("listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	st := b.Stats()
	log.Printf("served %d samples in %d batches (mean batch %.1f, p99 %.1fms)",
		st.Served, st.Batches, st.MeanBatch, st.LatencyP99Ms)
}

// demoPipeline assembles a small synthetic-data pipeline with single-pass
// bundled class hypervectors — untrained beyond bundling, but enough for
// `curl` smoke tests without a snapshot file.
func demoPipeline() (*core.Pipeline, error) {
	train, _ := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Train: 64, Test: 8, Size: 32, Noise: 0.2, Seed: 21,
	})
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(22), train.Classes)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(1, train.Classes)
	cfg.Seed = 23
	p, err := core.New(zoo, cfg)
	if err != nil {
		return nil, err
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)
	fmt.Fprintln(os.Stderr, "demo model: mobilenetv2 cut=1, bundled class hypervectors (not retrained)")
	return p, nil
}

// startPprof serves net/http/pprof's DefaultServeMux handlers on a separate
// listener, keeping the debug surface off the service port. No-op when addr
// is empty (the default).
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("pprof: listening on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("pprof: %v", err)
		}
	}()
}
