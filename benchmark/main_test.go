package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// shrink keeps a workload's model, shapes and code path and cuts its data so
// that the smoke test stays a few seconds: the pool still holds several
// distinct requests, and train learns for one epoch with no accuracy gate.
func shrink(w *workload) *workload {
	s := *w
	s.TrainN = s.Classes
	s.PoolN = 4 * s.PerRequest
	if s.PerRequest > s.Chunk {
		s.PoolN = s.PerRequest + s.Chunk
	}
	if s.Kind == kindTrain {
		s.TrainN, s.PoolN = 32, 16
		s.PretrainEpochs, s.HDEpochs, s.MinAccuracy = 1, 2, 0
	}
	return &s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload in both modes at 0.2 s and checks the
// benchmark's contract with BENCHMARK.json: the same workloads, every named
// metric emitted once with its unit and a finite value, and a trace file
// that parses with every span's parent present.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", n, len(workloads()))
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	checkDefs := func(kind string, defs []metricDef, named []boundedMetric) {
		if len(defs) != len(named) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json names %d", kind, len(defs), len(named))
		}
		units := map[string]string{}
		for _, d := range defs {
			if _, dup := units[d.name]; dup || !nameRE.MatchString(d.name) {
				t.Errorf("%s metric name %q is repeated or malformed", kind, d.name)
			}
			units[d.name] = d.unit
		}
		for _, bm := range named {
			if units[bm.Name] != bm.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json says unit %q, program %q", kind, bm.Name, bm.Unit, units[bm.Name])
			}
			if bm.Better != "lower" && bm.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, bm.Name, bm.Better)
			}
			if bm.Bound < 0 || bm.Bound > 0.25 {
				t.Errorf("%s metric %s: bound %v", kind, bm.Name, bm.Bound)
			}
		}
	}
	checkDefs("end-to-end", endToEnd, spec.EndToEnd)
	checkDefs("per-layer", perLayer, spec.PerLayer)

	dir := t.TempDir()
	for i, full := range workloads() {
		if spec.Workloads[i].Name != full.Name || spec.Workloads[i].Why != full.Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program, or their why differs", i, spec.Workloads[i].Name, full.Name)
		}
		w := shrink(full)
		for _, traced := range []bool{false, true} {
			res, err := run(w, 1, 0.2, traced, runOptions{setupReps: 1, outDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d %v", w.Name, traced, res.attempted, res.failed, res.errs)
			}
			line := res.line()
			if len(line.Metrics) != len(res.defs()) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.Name, traced, len(line.Metrics), len(res.defs()))
			}
			for _, d := range res.defs() {
				v, ok := line.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.name, v.Value)
				}
			}
		}

		raw, err := os.ReadFile(filepath.Join(dir, "trace_"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Record record `json:"record"`
			Spans  []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.Name, err)
		}
		if len(tf.Spans) == 0 || tf.Record.GoVersion == "" || len(tf.Record.Stages) == 0 || tf.Record.ModelVersion == "" {
			t.Errorf("%s: trace file has %d spans, record %+v", w.Name, len(tf.Spans), tf.Record)
		}
		ids := map[int64]bool{}
		for _, s := range tf.Spans {
			ids[s.ID] = true
		}
		for _, s := range tf.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", w.Name, s.ID, s.Name, s.Parent)
			}
			if s.EndUs < s.StartUs {
				t.Errorf("%s: span %d ends before it starts", w.Name, s.ID)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	// 1000 operations of 1 ms, one per ms, then one 450 ms stall: the median
	// window must not see the stall.
	var s []sample
	for i := 0; i < 1000; i++ {
		s = append(s, sample{end: seconds(float64(i+1) / 1000), lat: seconds(0.001), images: 2})
	}
	s = append(s, sample{end: seconds(1.45), lat: seconds(0.45), images: 2})
	st := summarize(s, 0, seconds(1.5), func(lo, hi time.Duration) float64 { return 1 })
	if st.windows != 5 || math.Abs(st.p50Ms-1) > 1e-9 || math.Abs(st.p95Ms-1) > 1e-9 {
		t.Errorf("windows %d p50 %v p95 %v", st.windows, st.p50Ms, st.p95Ms)
	}
	if math.Abs(st.imagesPerS-2000) > 1 {
		t.Errorf("images/s %v, want 2000", st.imagesPerS)
	}
	if got := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 25}); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("spearman %v, want 0.8", got)
	}
}
