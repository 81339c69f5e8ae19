// Package baseline implements the standalone-HD comparison point of the
// paper's accuracy evaluation (Fig. 7): VanillaHD, an HD classifier that
// encodes raw image pixels with the state-of-the-art non-linear encoding and
// never sees a CNN. Its poor accuracy on image workloads (the paper reports
// 39.88% / 19.7% on CIFAR-10/100) is the motivating observation for NSHD.
//
// The BaselineHD comparison (CNN features, no manifold, no KD) lives in
// package core as core.NewBaselineHD, since it shares the pipeline assembly.
package baseline

import (
	"fmt"
	"io"

	"nshd/internal/dataset"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

// VanillaConfig parameterizes VanillaHD.
type VanillaConfig struct {
	// D is the hypervector dimension.
	D int
	// Sigma is the non-linear encoder bandwidth; keep it near 1/sqrt(F) so
	// the random-Fourier phases stay in a discriminative range.
	Sigma float64
	// Epochs of MASS retraining.
	Epochs int
	// LR is the MASS learning rate.
	LR float64
	// Seed drives the encoder and shuffling.
	Seed int64
}

// DefaultVanillaConfig mirrors the paper's standalone-HD setup.
func DefaultVanillaConfig() VanillaConfig {
	return VanillaConfig{D: 3000, Sigma: 0.05, Epochs: 10, LR: 0.35, Seed: 1}
}

// VanillaHD is a pixels-in HD classifier.
type VanillaHD struct {
	Cfg     VanillaConfig
	Encoder *hdc.NonlinearEncoder
	HD      *hdlearn.Model
	rng     *tensor.RNG
}

// NewVanillaHD constructs a VanillaHD model for the dataset geometry.
func NewVanillaHD(d *dataset.Dataset, cfg VanillaConfig) (*VanillaHD, error) {
	if cfg.D < 16 {
		return nil, fmt.Errorf("baseline: dimension %d too small", cfg.D)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("baseline: %d epochs", cfg.Epochs)
	}
	shape := d.SampleShape()
	f := shape[0] * shape[1] * shape[2]
	rng := tensor.NewRNG(cfg.Seed)
	return &VanillaHD{
		Cfg:     cfg,
		Encoder: hdc.NewNonlinearEncoder(rng.Fork(), f, cfg.D, cfg.Sigma),
		HD:      hdlearn.NewModel(d.Classes, cfg.D),
		rng:     rng,
	}, nil
}

// Encode maps the dataset's images to hypervectors.
func (v *VanillaHD) Encode(images *tensor.Tensor) *tensor.Tensor {
	flat := images.Reshape(images.Shape[0], -1)
	return v.Encoder.EncodeBatch(flat)
}

// Train bundles and MASS-retrains on the training split, returning per-epoch
// stats.
func (v *VanillaHD) Train(train *dataset.Dataset, log io.Writer) ([]hdlearn.EpochStats, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	hvs := v.Encode(train.Images)
	v.HD.InitBundle(hvs, train.Labels)
	// Batch = 1: the per-sample MASS rule, bit for bit.
	hist, err := v.HD.Retrain(hvs, train.Labels, nil, hdlearn.RetrainConfig{
		Epochs: v.Cfg.Epochs, LR: v.Cfg.LR, Batch: 1,
	}, v.rng)
	if err != nil {
		return nil, err
	}
	if log != nil {
		for _, h := range hist {
			fmt.Fprintf(log, "vanilla epoch %d acc=%.4f\n", h.Epoch, h.TrainAccuracy)
		}
	}
	return hist, nil
}

// Accuracy scores the model on a labelled dataset.
func (v *VanillaHD) Accuracy(d *dataset.Dataset) float64 {
	return v.HD.Accuracy(v.Encode(d.Images), d.Labels)
}
