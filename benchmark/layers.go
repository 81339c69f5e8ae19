package main

import (
	"runtime"
	"strings"
	"time"

	"nshd/internal/engine"
	"nshd/internal/hdlearn"
	"nshd/internal/hwsim"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// traceFile is what a traced run adds to its file under benchmark/out/:
// the spans, the median time at each replay boundary, the engine's stage
// times and the per-layer roofline table.
type traceFile struct {
	Spans      []span             `json:"spans"`
	Boundaries map[string]float64 `json:"boundary_p50_us"`
	Stages     []engine.StageTime `json:"stage_times"`
	Roofline   []rooflineRow      `json:"roofline"`
}

// rooflineRow joins one timed extractor step (a layer, an epilogue-fused
// pair or a fused block) with the MACs and bytes of the layers it covers.
// Bytes are computed from tensor sizes, not measured: 4 bytes per parameter
// once plus every covered layer's output activations per image.
type rooflineRow struct {
	Engine    string  `json:"engine"` // "compiled" (the served plan) or "unfused" (layer by layer)
	Name      string  `json:"name"`
	Us        float64 `json:"us"`
	MACs      int64   `json:"macs"`
	Bytes     int64   `json:"bytes"`
	GFLOPs    float64 `json:"gflop_per_s"`
	PeakShare float64 `json:"share_of_gemm_peak"`
	EnergyPJ  float64 `json:"hwsim_energy_pj"`
}

// timeCalls calls fn until budget is spent, at least three times, and
// returns the call times in seconds at reference speed. Like a
// load client it samples the calibrator between calls, but only on its own
// thread (calibrator.own): the caller has stopped the background ticker.
func timeCalls(cal *calibrator, budget time.Duration, fn func()) []float64 {
	var out []float64
	start := time.Now()
	lastCal := start
	for len(out) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		out = append(out, t1.Sub(t0).Seconds())
		if t1.Sub(lastCal) >= calEvery {
			cal.own()
			lastCal = t1
		}
	}
	k := cal.factor(start, time.Now())
	for i := range out {
		out[i] /= k
	}
	return out
}

// traceServing is the traced run of a serving workload. It drives the same
// seeded request sequence, with the same clients, through each boundary in
// turn — the full path untraced, the full path with spans, then (HTTP kinds)
// the handler, Batcher.PredictBatch and Engine.PredictInto called directly —
// and takes a layer's self time as the difference of the medians on its two
// sides. u is a tenth of --seconds; the whole run lasts about --seconds.
// Like the end-to-end timings, every time here is at reference speed
// (calib.go); calib.speed_factor is the run's factor.
func traceServing(f *fixture, reqs *requests, secs float64, res *runResult) error {
	w, m, cal := f.w, res.metrics, res.cal
	began := time.Now()
	u := seconds(secs / 10)
	tr := newTracer()
	bound := map[string]float64{}
	var total loadResult
	phase := func(name string, warm, dur time.Duration, op opFunc) loadStats {
		lr := runLoad(cal, w.Clients, w.PerRequest, warm, dur, op)
		total.merge(lr)
		st := lr.stats(cal)
		bound[name] = st.p50Ms * 1e3
		return st
	}
	var ms0, ms1 runtime.MemStats

	engineOp := reqs.engineOp()
	plainOp, tracedOp := engineOp, func(c, seq int) error {
		id, t0 := tr.begin()
		err := engineOp(c, seq)
		tr.end(id, 0, "client.request", t0)
		return err
	}
	var srv *server
	if w.isHTTP() {
		var err error
		if srv, err = startServer(f, tr.middleware); err != nil {
			return err
		}
		defer srv.stop()
		var close1, close2 func()
		plainOp, close1 = reqs.httpOp(srv.url, nil)
		tracedOp, close2 = reqs.httpOp(srv.url, tr)
		defer close1()
		defer close2()
	}

	runtime.GC()
	runtime.ReadMemStats(&ms0)
	plain := phase("client.untraced", u/2, 2*u, plainOp)
	runtime.ReadMemStats(&ms1)
	plainOps := total.attempted
	tracedAt := time.Now()
	tracedFrom := float64((time.Since(tr.epoch) + u/2).Nanoseconds()) / 1e3
	traced := phase("client.traced", u/2, 2*u, tracedOp)
	tracedSpeed := cal.factor(tracedAt, time.Now())
	if plain.p50Ms > 0 {
		m["trace.overhead_share"] = traced.p50Ms/plain.p50Ms - 1
	}
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	predict := plain
	if w.isHTTP() {
		snap := srv.b.Stats()
		m["serve.mean_batch"] = snap.MeanBatch
		m["serve.requests"] = float64(snap.Requests)
		m["serve.rejected"] = float64(snap.Rejected)
		m["serve.errors"] = float64(snap.Errors)
		m["serve.latency_p99_ms"] = plain.p99Ms
		m["serve.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(plainOps, 1))
		// Transport is paired per request: the client's round trip minus the
		// handler time the middleware saw for the same span id.
		m["serve.transport_us"] = quantile(tr.selfTimes("client.request", "serve.handler", tracedFrom), 0.5) / tracedSpeed

		handler := phase("serve.handler", u/4, u, reqs.handlerOp(srv.handler))
		batcher := phase("serve.batcher", u/4, u, reqs.batcherOp(srv.b))
		runtime.ReadMemStats(&ms0)
		before := total.attempted
		predict = phase("engine.predict", u/4, u, engineOp)
		runtime.ReadMemStats(&ms1)
		plainOps = total.attempted - before
		m["serve.codec_us"] = (handler.p50Ms - batcher.p50Ms) * 1e3
		m["serve.batcher_us"] = (batcher.p50Ms - predict.p50Ms) * 1e3
	}
	m["engine.predict_us"] = predict.p50Ms * 1e3
	m["engine.allocs_per_predict"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(plainOps, 1))

	m["calib.speed_factor"] = cal.factor(began, time.Now())
	res.trace = &traceFile{Boundaries: bound}
	res.stopTicker()
	if err := engineLayers(f, u, cal, m, res.trace); err != nil {
		return err
	}
	m["core.extract_features_s"] = f.times.Extract
	m["core.hd_train_s"] = f.times.Bundle
	m["core.train_accuracy"] = f.trainAccuracy
	m["dataset.synth_s"] = f.times.Synth

	runtime.ReadMemStats(&ms1)
	m["runtime.heap_inuse_mb"] = float64(ms1.HeapInuse) / (1 << 20)
	res.trace.Spans = tr.spans
	m["trace.spans"] = float64(len(tr.spans))
	res.attempted, res.failed, res.errs = total.attempted, total.failed, total.errs
	return nil
}

// engineLayers measures the layers below Engine.PredictInto on the
// fixture's request shape (at most one engine chunk): the engine's stage
// times, the extractor's steps joined to their MACs and bytes, the kernels
// the stages rest on, and the tail's parts called one by one. It spends
// about two tenths of --seconds. The caller has stopped the calibrator's
// background ticker (see calibrator.own).
func engineLayers(f *fixture, u time.Duration, cal *calibrator, m metrics, tf *traceFile) error {
	w, p, e := f.w, f.p, f.e
	timed := func(budget time.Duration, fn func()) []float64 { return timeCalls(cal, budget, fn) }
	n := min(w.PerRequest, e.ChunkSize())
	img := f.images(0, n)

	m["engine.compile_s"] = f.times.Compile
	m["engine.chunk"] = float64(e.ChunkSize())
	for _, sb := range e.BytesBreakdown() {
		switch sb.Name {
		case "extract":
			m["engine.bytes_extract"] += float64(sb.Bytes)
		case "manifold":
			m["engine.bytes_manifold"] += float64(sb.Bytes)
		default:
			m["engine.bytes_tail"] += float64(sb.Bytes)
		}
	}

	// Kernel ceilings first: the shares below divide by them.
	scratch := make([]float32, tensor.GemmScratch())
	rng := tensor.NewRNG(1)
	a, b, c := tensor.New(256, 256), tensor.New(256, 256), tensor.New(256, 256)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	peak := 2 * 256 * 256 * 256 / median(timed(u/10, func() { tensor.MatMulSerialInto(c, a, b, scratch) })) / 1e9
	m["tensor.gemm_peak_gflops"] = peak
	words := make([]uint64, 2*4096)
	for i := range words {
		words[i] = uint64(rng.Intn(1 << 30))
	}
	sink := 0
	m["tensor.popcount_gbps"] = 2 * 8 * 4096 / median(timed(u/10, func() { sink += tensor.XorPopcount(words[:4096], words[4096:]) })) / 1e9
	_ = sink

	// Stage times of the compiled plan and of a second engine compiled layer
	// by layer from the same pipeline, interleaved so that both see the same
	// machine state: TimeStages takes the min of reps on the clock, each
	// round is brought to reference speed by the samples around it, and a
	// row's value is its median over the rounds (a min would pick the rounds
	// whose few samples overstated the slowdown).
	unfused, err := engine.Compile(p, engine.WithUnfusedExtract())
	if err != nil {
		return err
	}
	reps := 4
	if u < 100*time.Millisecond {
		reps = 1 // the smoke test
	}
	var rounds [2][][]engine.StageTime
	for start := time.Now(); len(rounds[0]) < 2 || time.Since(start) < u; {
		for side, eng := range []*engine.Engine{e, unfused} {
			cal.own()
			t0 := time.Now()
			st, err := eng.TimeStages(img, reps)
			if err != nil {
				return err
			}
			t1 := time.Now()
			cal.own()
			scaleStages(st, 1/cal.factor(t0.Add(-time.Millisecond), t1.Add(time.Millisecond)))
			rounds[side] = append(rounds[side], st)
		}
	}
	compiled, layered := medianStages(rounds[0]), medianStages(rounds[1])
	tf.Stages = compiled
	var sum float64
	for _, st := range compiled {
		sum += st.Seconds
	}
	var extract engine.StageTime
	for _, st := range compiled {
		switch st.Name {
		case "extract":
			extract = st
			m["engine.extract_us"] = st.Seconds * 1e6
			m["engine.extract_share"] = st.Seconds / sum
		case "manifold":
			m["engine.manifold_us"] = st.Seconds * 1e6
		default: // the tail, fused or staged
			m["engine.tail_us"] += st.Seconds * 1e6
			m["engine.tail_share"] += st.Seconds / sum
		}
	}

	layers := p.Extractor.Layers
	stats := p.Extractor.StatsPerLayer(p.Zoo.InShape)
	var macs int64
	for _, s := range stats {
		macs += s.MACs
	}
	m["nn.extract_macs"] = float64(macs)
	if extract.Seconds > 0 {
		m["nn.extract_gflops"] = 2 * float64(macs) * float64(n) / extract.Seconds / 1e9
		m["nn.extract_peak_share"] = m["nn.extract_gflops"] / peak
	}
	model := hwsim.XavierModel()
	roofline := func(name string, st engine.StageTime) []rooflineRow {
		steps := st.Sub
		if len(steps) == 0 {
			steps = []engine.StageTime{st}
		}
		rows := make([]rooflineRow, len(steps))
		for i, s := range joinLayers(steps, layers, stats) {
			r := &rows[i]
			r.Engine, r.Name, r.Us = name, steps[i].Name, steps[i].Seconds*1e6
			r.MACs, r.Bytes = s.MACs*int64(n), s.Params*4+s.ActBytes*int64(n)
			if steps[i].Seconds > 0 {
				r.GFLOPs = 2 * float64(r.MACs) / steps[i].Seconds / 1e9
				r.PeakShare = r.GFLOPs / peak
			}
			r.EnergyPJ = model.CNNEnergyPJ(s)
		}
		return rows
	}
	tf.Roofline = roofline("compiled", extract)
	for _, r := range tf.Roofline {
		if r.Us > m["nn.slowest_layer_us"] {
			m["nn.slowest_layer_us"] = r.Us
			m["nn.slowest_layer_share"] = r.Us / (sum * 1e6)
		}
		if strings.HasPrefix(r.Name, "fused{") {
			m["engine.fused_blocks"]++
		}
	}
	// Whether the analytic model behind the Fig. 4/6/10 reproductions orders
	// the layers as this CPU does: rank correlation over the unfused steps.
	var us, pj []float64
	for _, st := range layered {
		if st.Name != "extract" {
			continue
		}
		m["nn.unfused_extract_us"] = st.Seconds * 1e6
		rows := roofline("unfused", st)
		tf.Roofline = append(tf.Roofline, rows...)
		for _, r := range rows {
			us, pj = append(us, r.Us), append(pj, r.EnergyPJ)
		}
	}
	m["hwsim.rank_corr"] = spearman(us, pj)

	// The stages after extraction, called one by one through their own
	// packages on the same batch.
	feats := p.ExtractFeatures(img)
	v := feats.Reshape(n, feats.Len()/n)
	if p.Manifold != nil {
		ar := tensor.NewArena()
		p.Manifold.ForwardInfer(feats, ar) // measuring pass sizes the slabs
		ar.Freeze()
		m["manifold.forward_us"] = median(timed(u/10, func() {
			ar.Reset()
			p.Manifold.ForwardInfer(feats, ar)
		})) * 1e6
		v = p.Manifold.Forward(feats, false)
	}
	raw, signed := tensor.New(n, w.D), tensor.New(n, w.D)
	m["hdc.encode_us"] = median(timed(u/10, func() { p.Proj.EncodeBatchInto(v, raw, signed, scratch) })) * 1e6
	proj := tensor.New(n, w.D)
	m["tensor.gemm_proj_gflops"] = 2 * float64(n) * float64(v.Shape[1]) * float64(w.D) /
		median(timed(u/10, func() { tensor.MatMulInto(proj, v, p.Proj.P) })) / 1e9
	if w.Packed {
		pm := hdlearn.PackModel(p.HD)
		preds, q := make([]int, n), make([]uint64, pm.WordsPerRow())
		m["hdlearn.score_us"] = median(timed(u/10, func() { pm.PredictBatchInto(signed, preds, q) })) * 1e6
	} else {
		sims := tensor.New(n, w.Classes)
		m["hdlearn.score_us"] = median(timed(u/10, func() { p.HD.SimilarityBatchInto(sims, signed) })) * 1e6
	}
	return nil
}

func scaleStages(st []engine.StageTime, k float64) {
	for i := range st {
		st[i].Seconds *= k
		scaleStages(st[i].Sub, k)
	}
}

// medianStages reduces rounds of one engine's TimeStages, which all have
// the same rows, to each row's and sub-row's median.
func medianStages(rounds [][]engine.StageTime) []engine.StageTime {
	out := make([]engine.StageTime, len(rounds[0]))
	for i := range out {
		out[i].Name = rounds[0][i].Name
		vals, subs := make([]float64, len(rounds)), make([][]engine.StageTime, len(rounds))
		for r := range rounds {
			vals[r], subs[r] = rounds[r][i].Seconds, rounds[r][i].Sub
		}
		out[i].Seconds = median(vals)
		if len(subs[0]) > 0 {
			out[i].Sub = medianStages(subs)
		}
	}
	return out
}

// joinLayers sums, for each timed step, the stats of the extractor layers it
// covers. Steps and layers are both in execution order and a step's name
// spells its layers' names in order ("conv3x3(3→16,s1,p1)+relu",
// "fused{… …}"), except that fused names abbreviate a pool ("+pool2") and
// drop a flatten: a layer found neither in the rest of the current step's
// name nor in the next step's belongs to the current step.
func joinLayers(steps []engine.StageTime, layers []nn.Layer, stats []nn.Stats) []nn.Stats {
	out := make([]nn.Stats, len(steps))
	cur, rest := 0, steps[0].Name
	for i, l := range layers {
		name := l.Name()
		if at := strings.Index(rest, name); at >= 0 {
			rest = rest[at+len(name):]
		} else if cur+1 < len(steps) {
			if at := strings.Index(steps[cur+1].Name, name); at >= 0 {
				cur++
				rest = steps[cur].Name[at+len(name):]
			}
		}
		out[cur].Add(stats[i])
	}
	return out
}
