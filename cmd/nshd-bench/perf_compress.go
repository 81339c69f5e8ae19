package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/tensor"
)

// compressEntry is one row of BENCH_PR8.json: a point on the post-training
// compression tradeoff curve (serving bytes, fused-tail latency, test
// accuracy), or the auto-search / acceptance-criteria summary rows.
type compressEntry struct {
	Name        string  `json:"name"`
	KeepPct     int     `json:"keep_pct,omitempty"`
	Precision   string  `json:"precision,omitempty"`
	Rank        int     `json:"rank,omitempty"`
	D           int     `json:"d,omitempty"`
	Bytes       int64   `json:"model_bytes,omitempty"`
	TailUs      float64 `json:"tail_us,omitempty"`
	AccPct      float64 `json:"acc_pct,omitempty"`
	DropPt      float64 `json:"drop_pt,omitempty"` // test-accuracy points lost vs the float fused source
	AgreePct    float64 `json:"agree_pct,omitempty"`
	SizeRatio   float64 `json:"size_ratio,omitempty"`   // source bytes / this config's bytes
	TailSpeedup float64 `json:"tail_speedup,omitempty"` // source tail µs / this config's tail µs
	Pass        bool    `json:"pass,omitempty"`
}

// runPerfCompress measures engine.Compress on the PR 6 serving config (vgg16
// cut8, D=3000, float fused tail — the committed BENCH_PR6 baseline): a
// pinned tradeoff curve at keep ∈ {100,75,50,25}% × {int4, ternary}, the
// 1-point auto search, its remat composition (seed-regenerated pruned
// projection), and one acceptance row checking ≥2× smaller + faster tail at
// ≤1 accuracy point dropped.
func runPerfCompress(path, baselinePath string) error {
	train, test := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Train: 64, Test: 128, Size: 32, Noise: 0.2, Seed: 71,
	})
	zoo, err := cnn.Build("vgg16", tensor.NewRNG(72), 10)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(8, 10)
	cfg.Seed = 73
	cfg.D = 3000
	cfg.FHat = 100
	cfg.BatchSize = 32
	cfg.PackedInference = false // the PR 6 float fused baseline
	p, err := core.New(zoo, cfg)
	if err != nil {
		return err
	}
	feats := p.ExtractFeatures(train.Images)
	_, _, signed := p.Symbolize(feats, false)
	p.HD.InitBundle(signed, train.Labels)

	src, err := engine.Compile(p)
	if err != nil {
		return err
	}
	srcPreds, err := src.Predict(test.Images)
	if err != nil {
		return err
	}
	srcAcc := accPct(srcPreds, test.Labels)
	n := src.ChunkSize()
	if n > test.Len() {
		n = test.Len()
	}
	sample := test.Images.Len() / test.Len()
	timeImgs := tensor.FromSlice(test.Images.Data[:n*sample], n,
		test.Images.Shape[1], test.Images.Shape[2], test.Images.Shape[3])
	srcTail, err := tailOnlyUs(src, timeImgs)
	if err != nil {
		return err
	}
	entries := []compressEntry{{
		Name: "compress/source/float-fused", KeepPct: 100, Precision: "keep",
		D: src.Dim(), Bytes: src.ModelBytes(), TailUs: srcTail, AccPct: srcAcc, AgreePct: 100,
	}}
	fmt.Fprintf(os.Stderr, "%-40s %9d B   tail %8.1fµs   acc %5.1f%%\n",
		entries[0].Name, entries[0].Bytes, srcTail, srcAcc)

	target := engine.CompressTarget{Calib: test.Images, Labels: test.Labels}
	measure := func(name string, e *engine.Engine, rep engine.CompressReport) (compressEntry, error) {
		preds, err := e.Predict(test.Images)
		if err != nil {
			return compressEntry{}, err
		}
		tail, err := tailOnlyUs(e, timeImgs)
		if err != nil {
			return compressEntry{}, err
		}
		acc := accPct(preds, test.Labels)
		ce := compressEntry{
			Name: name, KeepPct: int(math.Round(rep.KeepRatio * 100)), Precision: rep.Precision,
			Rank: rep.Rank, D: e.Dim(), Bytes: e.ModelBytes(), TailUs: tail,
			AccPct: acc, DropPt: srcAcc - acc, AgreePct: accPct(preds, srcPreds),
			SizeRatio: float64(src.ModelBytes()) / float64(e.ModelBytes()), TailSpeedup: srcTail / tail,
		}
		fmt.Fprintf(os.Stderr, "%-40s %9d B   tail %8.1fµs   acc %5.1f%% (drop %+.1f)   ×%.2f smaller ×%.2f faster\n",
			ce.Name, ce.Bytes, ce.TailUs, ce.AccPct, ce.DropPt, ce.SizeRatio, ce.TailSpeedup)
		return ce, nil
	}

	// The pinned tradeoff curve: no search, exactly the requested point.
	for _, keep := range []float64{1.0, 0.75, 0.5, 0.25} {
		for _, prec := range []engine.ScorerPrecision{engine.PrecisionInt4, engine.PrecisionTernary} {
			t := target
			t.KeepRatio, t.Precision, t.NoLowRank, t.MaxAccuracyDrop = keep, prec, true, 100
			ce, rep, err := src.Compress(t)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("compress/curve/keep%d/%s", int(keep*100), prec.String())
			row, err := measure(name, ce, rep)
			if err != nil {
				return err
			}
			entries = append(entries, row)
		}
	}

	// The auto search: smallest engine within a 1-point calibration budget.
	t := target
	t.MaxAccuracyDrop = 1
	auto, rep, err := src.Compress(t)
	if err != nil {
		return err
	}
	autoRow, err := measure("compress/auto/1pt", auto, rep)
	if err != nil {
		return err
	}
	entries = append(entries, autoRow)

	// Remat composition: the same plan with the pruned projection
	// rematerialized from its seed — bit-identical predictions, the encoder's
	// serving bytes collapse to the seed + block list.
	remat, err := engine.Compile(p, engine.WithRemat(), engine.WithCompression(auto.Plan()))
	if err != nil {
		return err
	}
	rematRow, err := measure("compress/auto/1pt+remat", remat, rep)
	if err != nil {
		return err
	}
	entries = append(entries, rematRow)

	// Acceptance: a compressed config that is ≥2× smaller than the float
	// fused source with a faster tail at ≤1 point of test accuracy dropped.
	// Prefer the smaller remat composition when its tail still wins.
	best := rematRow
	if best.TailSpeedup <= 1 {
		best = autoRow
	}
	crit := compressEntry{
		Name: "compress/criteria/" + best.Name[len("compress/"):], KeepPct: best.KeepPct,
		Precision: best.Precision, Rank: best.Rank, D: best.D, Bytes: best.Bytes,
		TailUs: best.TailUs, AccPct: best.AccPct, DropPt: best.DropPt,
		SizeRatio: best.SizeRatio, TailSpeedup: best.TailSpeedup,
		Pass: best.SizeRatio >= 2 && best.TailSpeedup > 1 && best.DropPt <= 1,
	}
	entries = append(entries, crit)
	fmt.Fprintf(os.Stderr, "%-40s ×%.2f smaller, ×%.2f faster tail, %.1f pt drop  pass=%v\n",
		crit.Name, crit.SizeRatio, crit.TailSpeedup, crit.DropPt, crit.Pass)

	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(entries), path)
	if baselinePath != "" {
		return diffCompressBaseline(entries, baselinePath)
	}
	return nil
}

// tailOnlyUs times the engine's stages and returns the serving tail's (final
// stage's) best-of-11 microseconds.
func tailOnlyUs(e *engine.Engine, imgs *tensor.Tensor) (float64, error) {
	rows, err := e.TimeStages(imgs, 11)
	if err != nil {
		return 0, err
	}
	return rows[len(rows)-1].Seconds * 1e6, nil
}

func accPct(preds, labels []int) float64 {
	hit := 0
	for i := range preds {
		if preds[i] == labels[i] {
			hit++
		}
	}
	return 100 * float64(hit) / float64(len(preds))
}

// diffCompressBaseline prints per-row byte and tail ratios of a fresh run
// against the committed BENCH_PR8.json.
func diffCompressBaseline(entries []compressEntry, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf-compress baseline: %w", err)
	}
	var base []compressEntry
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("perf-compress baseline: %w", err)
	}
	byName := make(map[string]compressEntry, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	fmt.Fprintf(os.Stderr, "\nvs %s:\n", baselinePath)
	worst := math.Inf(1)
	for _, e := range entries {
		b, ok := byName[e.Name]
		if !ok || b.TailUs <= 0 || e.TailUs <= 0 {
			continue
		}
		ratio := b.TailUs / e.TailUs // >1: fresh tail is faster than committed
		if ratio < worst {
			worst = ratio
		}
		fmt.Fprintf(os.Stderr, "%-40s tail %8.1fµs vs %8.1fµs  ratio %.2f   bytes %d vs %d\n",
			e.Name, e.TailUs, b.TailUs, ratio, e.Bytes, b.Bytes)
	}
	if !math.IsInf(worst, 1) {
		fmt.Fprintf(os.Stderr, "worst tail ratio vs baseline: %.2f (>1 means faster than committed)\n", worst)
	}
	return nil
}
