// Package nshd_test hosts the benchmark harness: one benchmark per paper
// table/figure (regenerating its rows via internal/experiments at bench
// scale and reporting the headline quantity as a custom metric) plus
// microbenchmarks for the kernels the paper's hardware story rests on.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The trained-figure benchmarks share one session, so teachers are
// pretrained once per `go test` invocation regardless of -benchtime.
package nshd_test

import (
	"sync"
	"testing"

	"nshd"
	"nshd/internal/cnn"
	"nshd/internal/dataset"
	"nshd/internal/experiments"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/quant"
	"nshd/internal/tensor"
)

// benchEnv is the reduced-scale environment for trained-figure benches.
func benchEnv() experiments.Env {
	e := experiments.Quick()
	// One well-trained teacher keeps the suite fast while producing
	// meaningful accuracy metrics (a 6-epoch teacher stays at chance and
	// tells nothing).
	e.Models = []string{"effnetb0"}
	e.TrainN, e.TestN = 192, 96
	e.PretrainEpochs = 14
	e.HDEpochs = 6
	e.D = 1000
	e.FHat = 64
	e.CacheDir = ".cache"
	return e
}

var (
	sessOnce sync.Once
	sess     *experiments.Session
)

func session() *experiments.Session {
	sessOnce.Do(func() { sess = experiments.NewSession(benchEnv()) })
	return sess
}

// --- one benchmark per table/figure ---

func BenchmarkTable1(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rep, _ := s.Table1()
		b.ReportMetric(rep.Watts, "watts")
		b.ReportMetric(rep.Rows[0].Utilization, "lut-util-%")
	}
}

func BenchmarkFig4(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.ImprovementPct > best {
				best = r.ImprovementPct
			}
		}
		b.ReportMetric(best, "max-energy-saving-%")
	}
}

func BenchmarkFig5(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.SavingsPct
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-mac-saving-%")
	}
}

func BenchmarkFig6(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.ImprovementPct
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-fps-gain-%")
	}
}

func BenchmarkTable2(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		var saving float64
		for _, r := range rows {
			saving += 100 * (1 - float64(r.NSHDBytes)/float64(r.BaselineBytes))
		}
		b.ReportMetric(saving/float64(len(rows)), "mean-size-saving-vs-baseline-%")
	}
}

func BenchmarkFig7(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		var nshdSum, cnnSum float64
		for _, r := range rows {
			nshdSum += r.NSHDAcc
			cnnSum += r.CNNAcc
		}
		b.ReportMetric(nshdSum/float64(len(rows)), "mean-nshd-acc")
		b.ReportMetric(cnnSum/float64(len(rows)), "mean-cnn-acc")
		b.ReportMetric(rows[0].VanillaAcc, "vanilla-acc")
	}
}

func BenchmarkFig8(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		var gain float64
		for _, r := range rows {
			gain += r.GainPct
		}
		b.ReportMetric(gain/float64(len(rows)), "mean-kd-gain-pp")
	}
}

func BenchmarkFig9(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		cells, _, err := s.Fig9("effnetb0", 7)
		if err != nil {
			b.Fatal(err)
		}
		base, best := 0.0, 0.0
		for _, c := range cells {
			if c.Alpha == 0 {
				base = c.Accuracy
			}
			if c.Accuracy > best {
				best = c.Accuracy
			}
		}
		b.ReportMetric(100*(best-base), "kd-grid-boost-pp")
	}
}

func BenchmarkFig10(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Fig10("effnetb0")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.D == 3000 {
				b.ReportMetric(r.Accuracy, "acc-d3000")
				b.ReportMetric(r.QuantAcc, "int8-acc-d3000")
			}
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		res, _, err := s.Fig11("effnetb0", 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PurityBefore, "purity-before")
		b.ReportMetric(res.PurityAfter, "purity-after")
	}
}

// --- ablation benches (DESIGN.md design choices) ---

func BenchmarkAblationRetrain(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.AblationRetrain("effnetb0", 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "MASS" {
				b.ReportMetric(r.Accuracy, "mass-acc")
			}
			if r.Method == "perceptron" {
				b.ReportMetric(r.Accuracy, "perceptron-acc")
			}
		}
	}
}

func BenchmarkAblationSTE(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.AblationSTE("effnetb0", 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Accuracy, "trained-manifold-acc")
		b.ReportMetric(rows[1].Accuracy, "frozen-manifold-acc")
	}
}

// --- kernel microbenchmarks ---

func BenchmarkEncodeProjection(b *testing.B) {
	rng := tensor.NewRNG(1)
	pr := hdc.NewSeededProjection(1, 100, 3000)
	feats := tensor.New(64, 100)
	rng.FillNormal(feats, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.EncodeBatch(feats)
	}
	b.ReportMetric(float64(64*pr.EncodeMACs())/1e6, "Mmacs/op")
}

func BenchmarkSimilarityDense(b *testing.B) {
	rng := tensor.NewRNG(2)
	m := hdlearn.NewModel(10, 3000)
	rng.FillNormal(m.M, 0, 1)
	q := tensor.New(64, 3000)
	rng.FillBipolar(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SimilarityBatch(q)
	}
}

func BenchmarkSimilarityPacked(b *testing.B) {
	// The binary-kernel ablation: the packed XOR+popcount scorer the engine
	// serves, on the model and queries of the dense float path above.
	rng := tensor.NewRNG(2)
	m := hdlearn.NewModel(10, 3000)
	rng.FillNormal(m.M, 0, 1)
	q := tensor.New(64, 3000)
	rng.FillBipolar(q)
	pm := hdlearn.PackModel(m)
	preds := make([]int, 64)
	scratch := make([]uint64, pm.WordsPerRow())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.PredictBatchInto(q, preds, scratch)
	}
}

func BenchmarkQuantizedHDPredict(b *testing.B) {
	rng := tensor.NewRNG(4)
	m := hdlearn.NewModel(10, 3000)
	rng.FillNormal(m.M, 0, 1)
	q := quant.QuantizeHD(m)
	queries := tensor.New(64, 3000)
	rng.FillBipolar(queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.PredictBatch(queries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCNNForward(b *testing.B) {
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(5), 10)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(8, 3, 32, 32)
	tensor.NewRNG(6).FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.PredictLogits(zoo.Full(), x, 0)
	}
	b.ReportMetric(float64(8*zoo.FullStats().MACs)/1e6, "Mmacs/op")
}

func BenchmarkMASSEpoch(b *testing.B) {
	rng := tensor.NewRNG(7)
	hvs := tensor.New(256, 1000)
	rng.FillBipolar(hvs)
	labels := make([]int, 256)
	for i := range labels {
		labels[i] = i % 10
	}
	m := hdlearn.NewModel(10, 1000)
	m.InitBundle(hvs, labels)
	cfg := hdlearn.RetrainConfig{Epochs: 1, LR: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Retrain(hvs, labels, nil, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthCIFARGenerate(b *testing.B) {
	cfg := nshd.DefaultSynthConfig()
	cfg.Train, cfg.Test = 64, 1
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		nshd.SynthCIFAR(cfg)
	}
}

func BenchmarkTSNEEmbed(b *testing.B) {
	rng := tensor.NewRNG(8)
	data := tensor.New(100, 64)
	rng.FillNormal(data, 0, 1)
	cfg := nshd.DefaultTSNEConfig()
	cfg.Perplexity = 10
	cfg.Iters = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nshd.TSNEEmbed(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShiftAugment(b *testing.B) {
	aug := dataset.ShiftAugment(4)
	sample := make([]float32, 3*32*32)
	rng := tensor.NewRNG(9)
	for i := 0; i < b.N; i++ {
		aug(sample, []int{3, 32, 32}, rng)
	}
}

// BenchmarkPredictFloatVsPacked measures the deployment win of the packed
// binary inference path at paper-scale D, asserting first that both paths
// predict identically on the sign-quantized model (the packed kernel is a
// representation change, not an approximation).
func BenchmarkPredictFloatVsPacked(b *testing.B) {
	const k, d, n = 10, 10000, 64
	rng := tensor.NewRNG(11)
	m := hdlearn.NewModel(k, d)
	rng.FillNormal(m.M, 0, 1)
	quantized := &hdlearn.Model{K: k, D: d, M: tensor.Sign(m.M)}
	pm := hdlearn.PackModel(m)
	q := tensor.New(n, d)
	rng.FillBipolar(q)
	want := quantized.PredictBatch(q)
	got := pm.PredictBatch(q)
	for i := range want {
		if got[i] != want[i] {
			b.Fatalf("sample %d: packed=%d float=%d — packed path must agree bit-exactly", i, got[i], want[i])
		}
	}
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quantized.PredictBatch(q)
		}
		b.ReportMetric(float64(n), "queries/op")
	})
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pm.PredictBatch(q)
		}
		b.ReportMetric(float64(n), "queries/op")
	})
}
