package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkJSON is the part of the root BENCHMARK.json this program reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func (bm boundedMetric) worseBy(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if bm.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload twice with the same code and seed, A then B,
// and compares the two on every end-to-end metric with the bound
// BENCHMARK.json gives it: the noise check ROADMAP aim 1 asks for before any
// A/B claim. It fails when the two differ, in either direction, by more
// than the bound.
func runAA(seed int64, secs float64) error {
	spec, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	// A process's first fixture builds pay for its page faults and heap
	// growth (train_s read 0.103 s then 0.078 s on the first workload), which
	// the driver's runs, one process each, all pay alike: spend them here.
	if _, err := run(workloads()[0], seed, 0.2, false, runOptions{noFiles: true}); err != nil {
		return err
	}
	over := 0
	fmt.Printf("%-15s %-15s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads() {
		var ab [2]*runResult
		for i := range ab {
			if ab[i], err = run(w, seed, secs, false, runOptions{noFiles: true}); err != nil {
				return err
			}
			if !ab[i].correct() {
				return fmt.Errorf("%s: incorrect run: %v", w.Name, ab[i].errs)
			}
		}
		for _, bm := range spec.EndToEnd {
			a, b := ab[0].metrics[bm.Name], ab[1].metrics[bm.Name]
			diff := bm.worseBy(a, b)
			flag := ""
			if diff > bm.Bound || -diff > bm.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-15s %-15s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.Name, bm.Name, a, b, 100*diff, 100*bm.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
