package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// latEntry is one row of BENCH_PR9.json: the batch-1 Engine.Predict latency
// distribution of one tail mode (or one stage's share of it). BaseP50Us /
// BaseP99Us carry the committed before-numbers when a baseline file is given,
// so the row documents the before/after pair the low-latency datapath PR is
// judged on.
type latEntry struct {
	Name       string  `json:"name"`
	P50Us      float64 `json:"p50_us,omitempty"`
	P99Us      float64 `json:"p99_us,omitempty"`
	BaseP50Us  float64 `json:"base_p50_us,omitempty"`
	BaseP99Us  float64 `json:"base_p99_us,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"` // base p50 / fresh p50
	AgreeExact bool    `json:"agree_exact,omitempty"`
}

const (
	latWarmup = 24
	latReps   = 400
	latStage  = 48 // TimeStages reps (min-of, per stage)
)

// runPerfLatency measures single-request (batch-1) Engine.Predict latency on
// the committed serving config (the BENCH_PR6 shapes: vgg16 cut 8, D=3000),
// float and packed kernels, for the prepacked tail (the "fused" rows, the
// name BENCH_PR9.json keys on) and the rematerialized one, plus each mode's
// per-stage split. This is the p50/p99 a single user sees ahead of any
// micro-batching; the Batcher and Router amortize throughput, but nothing
// amortizes the first request's unfused extract path.
func runPerfLatency(path, baselinePath string) error {
	configs := []struct {
		model  string
		cut    int
		packed bool
	}{
		{"vgg16", 8, false},
		{"vgg16", 8, true},
	}
	train, test := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Train: 64, Test: 128, Size: 32, Noise: 0.2, Seed: 71,
	})
	var entries []latEntry
	for _, c := range configs {
		rows, err := perfLatencyEngine(c.model, c.cut, c.packed, train, test)
		if err != nil {
			return err
		}
		entries = append(entries, rows...)
	}
	if baselinePath != "" {
		if err := embedLatencyBaseline(entries, baselinePath); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(entries), path)
	return nil
}

func perfLatencyEngine(model string, cut int, packed bool, train, test *dataset.Dataset) ([]latEntry, error) {
	p, err := benchPipeline(model, cut, packed, train)
	if err != nil {
		return nil, err
	}

	modes := []struct {
		name string
		opts []engine.Option
	}{
		{"fused", nil},
		{"remat", []engine.Option{engine.WithRemat()}},
	}
	kernel := "float"
	if packed {
		kernel = "packed"
	}

	// Agreement: every mode must compute the same function before its
	// latency counts (the engine tests pin this bit-exactly; this is the
	// same-run sanity signal on the benchmarked build).
	var ref []int
	engines := make([]*engine.Engine, len(modes))
	for mi, m := range modes {
		e, err := engine.Compile(p, m.opts...)
		if err != nil {
			return nil, err
		}
		engines[mi] = e
		preds, err := e.Predict(test.Images)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = preds
		} else {
			for i := range preds {
				if preds[i] != ref[i] {
					return nil, fmt.Errorf("perf-latency: %s/%s disagrees with %s at sample %d",
						m.name, kernel, modes[0].name, i)
				}
			}
		}
	}

	sample := test.Images.Len() / test.Len()
	var entries []latEntry
	for mi, m := range modes {
		e := engines[mi]
		img := tensor.FromSlice(test.Images.Data[:sample], 1,
			test.Images.Shape[1], test.Images.Shape[2], test.Images.Shape[3])
		preds := make([]int, 1)
		lats := make([]float64, 0, latReps)
		for r := 0; r < latWarmup+latReps; r++ {
			// Rotate through the test set so the measurement is not one
			// image's cache residency.
			i := r % test.Len()
			img.Data = test.Images.Data[i*sample : (i+1)*sample]
			t0 := time.Now()
			if err := e.PredictInto(img, preds); err != nil {
				return nil, err
			}
			if r >= latWarmup {
				lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		sort.Float64s(lats)
		en := latEntry{
			Name:       fmt.Sprintf("latency/%s/cut%d/%s/%s/batch1", model, cut, kernel, m.name),
			P50Us:      lats[len(lats)/2],
			P99Us:      lats[len(lats)*99/100],
			AgreeExact: true,
		}
		entries = append(entries, en)
		fmt.Fprintf(os.Stderr, "%-44s p50 %9.1fµs   p99 %9.1fµs\n", en.Name, en.P50Us, en.P99Us)

		rows, err := e.TimeStages(img, latStage)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			se := latEntry{
				Name:  fmt.Sprintf("latency/%s/cut%d/%s/%s/stage/%s", model, cut, kernel, m.name, r.Name),
				P50Us: r.Seconds * 1e6,
			}
			entries = append(entries, se)
			fmt.Fprintf(os.Stderr, "%-60s %9.1fµs\n", "  "+se.Name, se.P50Us)
		}
	}
	return entries, nil
}

// embedLatencyBaseline copies the baseline file's p50/p99 into matching rows
// (the before-numbers the committed JSON documents) and prints the ratios.
func embedLatencyBaseline(entries []latEntry, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf-latency baseline: %w", err)
	}
	var base []latEntry
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("perf-latency baseline: %w", err)
	}
	byName := make(map[string]latEntry, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	fmt.Fprintf(os.Stderr, "\nvs %s:\n", baselinePath)
	worst := math.Inf(1)
	for i := range entries {
		b, ok := byName[entries[i].Name]
		if !ok || b.P50Us <= 0 {
			continue
		}
		entries[i].BaseP50Us = b.P50Us
		entries[i].BaseP99Us = b.P99Us
		entries[i].Speedup = b.P50Us / entries[i].P50Us
		if entries[i].P99Us > 0 && entries[i].Speedup < worst {
			worst = entries[i].Speedup
		}
		fmt.Fprintf(os.Stderr, "%-44s p50 %9.1fµs vs %9.1fµs  ×%.2f\n",
			entries[i].Name, entries[i].P50Us, b.P50Us, entries[i].Speedup)
	}
	if !math.IsInf(worst, 1) {
		fmt.Fprintf(os.Stderr, "worst end-to-end p50 speedup vs baseline: ×%.2f\n", worst)
	}
	return nil
}
