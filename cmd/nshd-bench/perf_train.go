package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// pairedMin interleaves two operations op-by-op and returns each one's
// minimum over reps rounds — the same drift-robust scheme perfServing uses:
// paired ops sample the same machine state, and the min estimates the
// uncontended cost of each path.
func pairedMin(a, b func(), reps int) (aNs, bNs int64) {
	aNs, bNs = int64(1)<<62, int64(1)<<62
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		a()
		if d := time.Since(t0).Nanoseconds(); d < aNs {
			aNs = d
		}
		t1 := time.Now()
		b()
		if d := time.Since(t1).Nanoseconds(); d < bNs {
			bNs = d
		}
	}
	return aNs, bNs
}

// minNs returns the minimum duration of op over reps runs.
func minNs(op func(), reps int) int64 {
	best := int64(1) << 62
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		op()
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}

// perfTraining benchmarks the training path: the stacked-GEMM Conv2D
// backward, a full CNN training step, and a MASS retraining epoch per-sample
// vs batched.
func perfTraining(addRes func(name string, flops, bytes int64, res testing.BenchmarkResult)) error {
	rng := tensor.NewRNG(31)

	// Conv2D backward (per-shape rows: BenchmarkConv2DBackward in internal/nn).
	{
		const n, inC, outC, k, hw = 32, 16, 32, 3, 16
		conv := nn.NewConv2D(rng, inC, outC, k, 1, 1, true)
		x := tensor.New(n, inC, hw, hw)
		rng.FillNormal(x, 0, 1)
		y := conv.Forward(x, true)
		grad := tensor.New(y.Shape...)
		rng.FillNormal(grad, 0, 1)
		gemmOp := func() {
			conv.Weight.ZeroGrad()
			conv.Bias.ZeroGrad()
			conv.Backward(grad)
		}
		best := minNs(gemmOp, 12)
		// Two GEMM-shaped products per chunk: dWᵀ += cols·Gᵀ and dcols = Wᵀ·G.
		outHW := y.Shape[2] * y.Shape[3]
		flops := int64(4 * n * outC * inC * k * k * outHW)
		addRes("train/conv_backward/gemm", flops, 0, benchResult(best, countAllocs(gemmOp)))
	}

	// Full CNN training step (forward + loss + backward + SGD) on a small
	// conv-bn-relu-pool-linear stack — the end-to-end cost Trainer.Fit pays
	// per minibatch.
	{
		const n = 32
		model := nn.NewSequential("bench-step",
			nn.NewConv2D(rng, 3, 16, 3, 1, 1, true),
			nn.NewBatchNorm2D(16),
			nn.NewReLU(),
			nn.NewMaxPool2D(2),
			nn.NewConv2D(rng, 16, 32, 3, 1, 1, true),
			nn.NewReLU(),
			nn.NewMaxPool2D(2),
			nn.NewFlatten(),
			nn.NewLinear(rng, 32*8*8, 10, true),
		)
		x := tensor.New(n, 3, 32, 32)
		rng.FillNormal(x, 0, 1)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % 10
		}
		opt := nn.NewSGD(0.05, 0.9, 0)
		stepOp := func() {
			model.ZeroGrad()
			logits := model.Forward(x, true)
			_, g := nn.CrossEntropy(logits, labels)
			model.Backward(g)
			opt.Step(model.Params())
		}
		best := minNs(stepOp, 8)
		addRes("train/cnn_step/b32_cifar_shape", 0, int64(x.Len()*4), benchResult(best, countAllocs(stepOp)))
	}

	// MASS retraining epoch at paper scale (K=10, D=3000, N=512): per-sample
	// similarity + bundling vs one GEMM per batch + rank-B update. Each rep
	// retrains a clone so both paths always start from the same model.
	{
		const k, d, n = 10, 3000, 512
		base := hdlearn.NewModel(k, d)
		rng.FillNormal(base.M, 0, 1)
		hvs := tensor.New(n, d)
		rng.FillBipolar(hvs)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % k
		}
		cfg := hdlearn.MASSConfig{Epochs: 1, LR: 0.05}
		bcfg := cfg
		bcfg.Batch = 64
		perSampleOp := func() { base.Clone().TrainMASS(hvs, labels, cfg, nil) }
		batchedOp := func() { base.Clone().TrainMASSBatch(hvs, labels, bcfg, nil) }
		perNs, batchNs := pairedMin(perSampleOp, batchedOp, 12)
		flops := int64(2 * 2 * k * d * n) // similarity + update per sample
		addRes("train/mass_epoch/persample", flops, 0, benchResult(perNs, countAllocs(perSampleOp)))
		addRes("train/mass_epoch/batched", flops, 0, benchResult(batchNs, countAllocs(batchedOp)))
		fmt.Fprintf(os.Stderr, "%-40s %12.2fx\n", "train/mass_epoch/speedup",
			float64(perNs)/float64(batchNs))
	}
	return nil
}

// runPerfTrain runs only the training-path benchmarks, writes them as JSON,
// and — when baseline names an existing report — prints a per-row comparison
// against the matching rows of that baseline (make bench-train).
func runPerfTrain(path, baseline string) error {
	var entries []perfEntry
	addRes := func(name string, flops, bytes int64, res testing.BenchmarkResult) {
		ns := float64(res.NsPerOp())
		e := perfEntry{Name: name, NsPerOp: ns, AllocsPerOp: res.AllocsPerOp()}
		if bytes > 0 && ns > 0 {
			e.MBPerSec = float64(bytes) / ns * 1e3
		}
		if flops > 0 && ns > 0 {
			e.GFlops = float64(flops) / ns
		}
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "%-40s %12.0f ns/op\n", name, ns)
	}
	if err := perfTraining(addRes); err != nil {
		return err
	}
	if baseline != "" {
		if err := diffPerf(baseline, entries); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// diffPerf prints new-vs-baseline deltas for every row present in both
// reports.
func diffPerf(baselinePath string, entries []perfEntry) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf baseline: %w", err)
	}
	var base []perfEntry
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("perf baseline %s: %w", baselinePath, err)
	}
	byName := make(map[string]perfEntry, len(base))
	for _, e := range base {
		byName[e.Name] = e
	}
	fmt.Printf("%-40s %14s %14s %8s\n", "benchmark", "baseline ns", "current ns", "delta")
	for _, e := range entries {
		b, ok := byName[e.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("%-40s %14s %14.0f %8s\n", e.Name, "-", e.NsPerOp, "new")
			continue
		}
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%%\n", e.Name, b.NsPerOp, e.NsPerOp,
			100*(e.NsPerOp-b.NsPerOp)/b.NsPerOp)
	}
	return nil
}
