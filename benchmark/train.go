package main

import (
	"fmt"
	"runtime"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// trainDataSeed fixes the train workload's images. --seed drives only the
// order the training images are visited in and the order test images are
// served in: with the class templates themselves drawn from --seed, test
// accuracy ranged 0.36–0.54 over seeds 1–6 (measured with this config),
// wider than any bound a metric may have.
const trainDataSeed = 9

// epochClock timestamps the lines Pipeline.TrainOnFeatures logs, one per HD
// epoch, which is the only place an epoch boundary is visible from outside.
type epochClock struct{ at []time.Time }

func (c *epochClock) Write(p []byte) (int, error) {
	c.at = append(c.at, time.Now())
	return len(p), nil
}

// trainInputs synthesizes the workload's data and builds the untrained zoo
// model: everything that exists before training starts.
func trainInputs(w *workload, seed int64) (train, test *dataset.Dataset, zoo *cnn.Model, synthS float64, err error) {
	t0 := time.Now()
	train, test = dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: w.Classes, Train: w.TrainN, Test: w.PoolN, Size: w.Size, Noise: 0.3, Seed: trainDataSeed,
	})
	train = train.Shuffled(tensor.NewRNG(seed))
	synthS = since(t0)
	zoo, err = cnn.Build(w.Model, tensor.NewRNG(zooSeed), w.Classes)
	return train, test, zoo, synthS, err
}

// runTrain runs the train workload: Algorithm 1 from an untrained CNN to a
// compiled engine and its test accuracy (the operation train_s times), then
// serves the test split with the trained engine for the latency and
// throughput metrics every workload reports. The training itself is a fixed
// amount of work; --seconds sizes only the serving part (a fifth each).
func runTrain(w *workload, seed int64, secs float64, traced bool, opt runOptions, res *runResult) error {
	var (
		train, test *dataset.Dataset
		zoo         *cnn.Model
		setups      []float64
		synthS      float64
		err         error
	)
	m, cal := res.metrics, res.cal
	stopCal := cal.background(calSetup)
	for i := 0; i < opt.reps(); i++ {
		t0 := time.Now()
		if train, test, zoo, synthS, err = trainInputs(w, seed); err != nil {
			return err
		}
		total := since(t0)
		k := cal.factor(t0, time.Now())
		synthS /= k
		setups = append(setups, total/k)
	}
	stopCal()
	res.stopTicker = cal.background(calBackground)
	defer res.stopTicker()
	// stage runs one step of the timed operation as a span and returns its
	// time at reference speed (calib.go).
	tr := newTracer()
	stage := func(parent int64, name string, fn func() error) (float64, error) {
		at := time.Now()
		id, t0 := tr.begin()
		err := fn()
		tr.end(id, parent, name, t0)
		return cal.norm(at, since(at)), err
	}

	// The timed operation. The traced run makes the three calls
	// Pipeline.Train is made of one by one, to time each.
	f := &fixture{w: w, train: train, pool: test}
	trainAt := time.Now()
	root, rootStart := tr.begin()
	var preds []int
	var report *core.TrainReport
	pretrainS, err := stage(root, "cnn.pretrain", func() error {
		pc := cnn.DefaultPretrainConfig()
		pc.Epochs = w.PretrainEpochs
		acc, _, err := cnn.Pretrain(zoo, train, pc, tensor.NewRNG(pretrainSeed))
		m["cnn.teacher_accuracy"] = acc
		return err
	})
	if err != nil {
		return err
	}
	cfg := w.pipelineConfig()
	cfg.Epochs = w.HDEpochs
	if f.p, err = core.New(zoo, cfg); err != nil {
		return err
	}
	clock := &epochClock{}
	if !traced {
		_, err = stage(root, "core.train", func() error {
			report, err = f.p.Train(train, nil)
			return err
		})
	} else {
		var feats, logits *tensor.Tensor
		m["core.extract_features_s"], _ = stage(root, "core.extract_features", func() error {
			feats = f.p.ExtractFeatures(train.Images)
			return nil
		})
		m["core.teacher_logits_s"], _ = stage(root, "core.teacher_logits", func() error {
			logits = nn.PredictLogits(zoo.Full(), train.Images, cfg.BatchSize)
			return nil
		})
		m["core.hd_train_s"], err = stage(root, "core.hd_train", func() error {
			report, err = f.p.TrainOnFeatures(feats, train.Labels, logits, clock)
			return err
		})
	}
	if err != nil {
		return err
	}
	f.times.Compile, err = stage(root, "engine.compile", func() error {
		f.e, err = engine.Compile(f.p)
		return err
	})
	if err != nil {
		return err
	}
	if _, err = stage(root, "engine.predict", func() error {
		preds, err = f.e.Predict(test.Images)
		return err
	}); err != nil {
		return err
	}
	tr.end(root, 0, "client.request", rootStart)
	rawTrainS := since(trainAt)
	trainS := cal.norm(trainAt, rawTrainS)

	right := 0
	for i, p := range preds {
		if p == test.Labels[i] {
			right++
		}
	}
	accuracy := float64(right) / float64(len(preds))
	res.record.Stages = f.e.Stages()
	res.record.ModelVersion = fmt.Sprintf("%016x", f.e.ModelVersion())

	// Correctness: the engine agrees with PredictDirect on every test
	// image, and the model learned (chance is 1/classes).
	if err := f.gate(); err != nil {
		return err
	}
	res.attempted = 1
	if accuracy < w.MinAccuracy {
		res.failed = 1
		res.errs = append(res.errs, fmt.Sprintf("test accuracy %.4f is below %.2f", accuracy, w.MinAccuracy))
	}

	reqs := newRequests(f, seed)
	if traced {
		m["cnn.pretrain_s"] = pretrainS
		m["core.train_accuracy"] = report.FinalTrainAccuracy
		m["dataset.synth_s"] = synthS
		var gaps []float64
		for i := 1; i < len(clock.at) && i < w.HDEpochs; i++ {
			gaps = append(gaps, clock.at[i].Sub(clock.at[i-1]).Seconds()*1e3/cal.factor(clock.at[i-1], clock.at[i]))
		}
		m["hdlearn.epoch_ms"] = median(gaps)

		u := seconds(secs / 10)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		lr := runLoad(cal, 1, 1, u/2, 2*u, reqs.engineOp())
		runtime.ReadMemStats(&ms1)
		m["engine.predict_us"] = lr.stats(cal).p50Ms * 1e3
		m["engine.allocs_per_predict"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(lr.attempted, 1))
		m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		m["runtime.heap_inuse_mb"] = float64(ms1.HeapInuse) / (1 << 20)
		res.trace = &traceFile{Boundaries: map[string]float64{"engine.predict": m["engine.predict_us"]}}
		m["calib.speed_factor"] = cal.factor(trainAt, time.Now())
		res.stopTicker()
		if err := engineLayers(f, u, cal, m, res.trace); err != nil {
			return err
		}
		res.trace.Spans = tr.spans
		m["trace.spans"] = float64(len(tr.spans))
		res.attempted += lr.attempted
		res.failed += lr.failed
		res.errs = append(res.errs, lr.errs...)
		return nil
	}

	// Serving with the trained weights: batch-1 latency, then bulk
	// throughput over the whole test split.
	dur := seconds(secs / 5)
	lr := runLoad(cal, 1, 1, dur/5, dur, reqs.engineOp())
	st := lr.stats(cal)
	res.record.Samples, res.record.Windows = len(lr.samples), st.windows
	var bulk []float64 // seconds per Predict of the whole split, at reference speed
	for start := time.Now(); len(bulk) < 3 || time.Since(start) < dur; {
		t0 := time.Now()
		if _, err := f.e.Predict(test.Images); err != nil {
			res.failed++
			res.errs = append(res.errs, err.Error())
		}
		bulk = append(bulk, cal.norm(t0, since(t0)))
	}
	res.attempted += lr.attempted + len(bulk)
	res.failed += lr.failed
	res.errs = append(res.errs, lr.errs...)

	m["latency_p50_ms"] = st.p50Ms
	m["latency_p95_ms"] = st.p95Ms
	m["images_per_s"] = float64(test.Len()) / median(bulk)
	res.record.Raw = map[string]float64{
		"speed_factor":   rawTrainS / trainS,
		"train_s":        rawTrainS,
		"latency_p50_ms": st.rawP50Ms,
	}
	m["train_s"] = trainS
	m["accuracy"] = accuracy
	m["model_bytes"] = float64(f.e.ModelBytes())
	m["setup_s"] = median(setups)
	return nil
}
