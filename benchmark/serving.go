package main

import (
	"fmt"
	"runtime"
	"time"
)

func (w *workload) isHTTP() bool { return w.Kind == kindHTTPBinary || w.Kind == kindHTTPJSON }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupFixture builds the workload's fixture reps times from nothing and
// reports the median build (setup_s) and the median single-pass training
// part of it (train_s on the serving workloads); the last build is kept.
func setupFixture(w *workload, seed int64, reps int, cal *calibrator) (f *fixture, setupS, trainS float64, err error) {
	var totals, trains []float64
	for i := 0; i < reps; i++ {
		f, err = buildFixture(w, seed, cal)
		if err != nil {
			return nil, 0, 0, err
		}
		totals = append(totals, f.times.Total)
		trains = append(trains, f.times.Extract+f.times.Bundle)
	}
	return f, median(totals), median(trains), nil
}

// runServing runs one of the four serving workloads.
func runServing(w *workload, seed int64, secs float64, traced bool, opt runOptions, res *runResult) error {
	stopCal := res.cal.background(calSetup)
	f, setupS, trainS, err := setupFixture(w, seed, opt.reps(), res.cal)
	stopCal()
	if err != nil {
		return err
	}
	res.stopTicker = res.cal.background(calBackground)
	defer res.stopTicker()
	if err := f.gate(); err != nil {
		return err
	}
	res.record.Stages = f.e.Stages()
	res.record.ModelVersion = fmt.Sprintf("%016x", f.e.ModelVersion())
	reqs := newRequests(f, seed)
	if traced {
		return traceServing(f, reqs, secs, res)
	}

	op := reqs.engineOp()
	if w.isHTTP() {
		srv, err := startServer(f, nil)
		if err != nil {
			return err
		}
		defer srv.stop()
		var closeIdle func()
		op, closeIdle = reqs.httpOp(srv.url, nil)
		defer closeIdle()
	}
	dur := seconds(secs)
	warm := min(2*time.Second, dur/5)
	runtime.GC() // start every run's measured interval from a collected heap
	lr := runLoad(res.cal, w.Clients, w.PerRequest, warm, dur, op)
	st := lr.stats(res.cal)

	res.attempted, res.failed, res.errs = lr.attempted, lr.failed, lr.errs
	res.record.Samples, res.record.Windows = len(lr.samples), st.windows
	res.record.Raw = map[string]float64{
		"speed_factor":   st.speedFactor,
		"latency_p50_ms": st.rawP50Ms,
		"images_per_s":   st.rawRate,
		"setup_s":        f.times.Total * f.times.SpeedFactor, // the last build's
	}
	m := res.metrics
	m["latency_p50_ms"] = st.p50Ms
	m["latency_p95_ms"] = st.p95Ms
	m["images_per_s"] = st.imagesPerS
	m["train_s"] = trainS
	// The reference label of a serving workload is the model's own
	// (Pipeline.PredictDirect), so accuracy is the share of operations
	// answered with it: 1 unless something failed.
	m["accuracy"] = float64(lr.attempted-lr.failed) / float64(lr.attempted)
	m["model_bytes"] = float64(f.e.ModelBytes())
	m["setup_s"] = setupS
	return nil
}
