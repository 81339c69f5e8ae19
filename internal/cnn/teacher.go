package cnn

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"nshd/internal/dataset"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// PretrainConfig controls teacher pretraining. The paper uses off-the-shelf
// pretrained CNNs; in this reproduction we pretrain once on the synthetic
// workload and cache the weights on disk, so every experiment afterwards
// consumes the teacher exactly as the paper does — forward-only.
type PretrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// CacheDir, when non-empty, enables snapshot reuse keyed by model,
	// dataset and schedule.
	CacheDir string
	Log      io.Writer
}

// DefaultPretrainConfig returns the schedule used by the experiment harness.
func DefaultPretrainConfig() PretrainConfig {
	return PretrainConfig{Epochs: 12, BatchSize: 32, LR: 0.05, Momentum: 0.9}
}

// cachePath derives a deterministic snapshot name for the configuration.
func (c PretrainConfig) cachePath(m *Model, d *dataset.Dataset) string {
	return filepath.Join(c.CacheDir,
		fmt.Sprintf("%s_%s_%dc_%dn_%de.gob", m.Name, sanitize(d.Name), m.Classes, d.Len(), c.Epochs))
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// ErrDiverged reports a teacher whose training loss or weights are not
// finite: Pretrain returns it, wrapped, for a run that diverged (and caches
// nothing) and for a cached snapshot that holds such weights.
var ErrDiverged = errors.New("cnn: teacher diverged: non-finite loss or weights")

// finite reports whether every weight of model is a finite number.
func finite(model *nn.Sequential) bool {
	for _, p := range model.Params() {
		for _, v := range p.W.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// Pretrain trains (or restores from cache) the full CNN on the training
// split, returning the final training accuracy. After Pretrain the model is
// ready to serve both as the distillation teacher and, through Cut, as the
// NSHD feature extractor. A run whose epoch loss or final weights are not
// finite, or a cached snapshot with non-finite weights, fails with
// ErrDiverged; a diverged run writes no snapshot.
func Pretrain(m *Model, train *dataset.Dataset, cfg PretrainConfig, rng *tensor.RNG) (float64, bool, error) {
	if cfg.CacheDir != "" {
		path := cfg.cachePath(m, train)
		if _, err := os.Stat(path); err == nil {
			if err := nn.LoadModel(m.Full(), path); err != nil {
				return 0, false, fmt.Errorf("cnn: restore cached teacher: %w", err)
			}
			if !finite(m.Full()) {
				return 0, false, fmt.Errorf("%w: cached snapshot %s", ErrDiverged, path)
			}
			acc := nn.Evaluate(m.Full(), train.Images, train.Labels, cfg.BatchSize)
			return acc, true, nil
		}
	}
	tr := &nn.Trainer{
		Epochs:     cfg.Epochs,
		BatchSize:  cfg.BatchSize,
		Opt:        nn.NewSGD(cfg.LR, cfg.Momentum, 1e-4),
		ClipNorm:   5,
		Log:        cfg.Log,
		Augment:    dataset.ShiftAugment(4),
		LRSchedule: nn.StepDecay(cfg.LR, 0.5, cfg.Epochs/3+1),
	}
	hist := tr.Fit(m.Full(), train.Images, train.Labels, rng)
	acc := hist[len(hist)-1].Accuracy
	for _, st := range hist {
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			return acc, false, fmt.Errorf("%w: epoch %d loss %v", ErrDiverged, st.Epoch, st.Loss)
		}
	}
	if !finite(m.Full()) {
		return acc, false, ErrDiverged
	}
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return acc, false, fmt.Errorf("cnn: create cache dir: %w", err)
		}
		if err := nn.SaveModel(m.Full(), cfg.cachePath(m, train)); err != nil {
			return acc, false, fmt.Errorf("cnn: cache teacher: %w", err)
		}
	}
	return acc, false, nil
}
