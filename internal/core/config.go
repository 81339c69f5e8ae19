// Package core assembles NSHD: a cut pretrained CNN feature extractor, the
// manifold compression layer Ψ, the binary random-projection HD encoder Φ_P,
// and an HD classifier trained with knowledge distillation from the full CNN
// (Algorithm 1). It also provides the BaselineHD variant (no manifold, no
// KD) the paper compares against, and the cost accounting behind Table II
// and Fig. 5.
package core

import (
	"fmt"
)

// Config parameterizes an NSHD pipeline.
type Config struct {
	// CutLayer is the paper-style index of the feature-extraction layer.
	CutLayer int
	// Classes is the number of classes K.
	Classes int
	// D is the hypervector dimensionality (paper default: 3000).
	D int
	// FHat is the manifold output dimension F̂ (paper default: 100; must be
	// at least Classes).
	FHat int
	// UseManifold toggles the manifold learner; false reproduces
	// BaselineHD's feature handling: features are reduced with sign(W·v)
	// over min(F, 1024) random hyperplanes before HD encoding, as in prior
	// work [9]. The paper notes LSH "does not allow radically small bucket
	// sizes", so the width stays large.
	UseManifold bool
	// UseKD toggles knowledge distillation (Algorithm 1); false degrades to
	// plain MASS retraining.
	UseKD bool
	// Alpha weighs the distilled update (Algorithm 1 line 8).
	Alpha float64
	// Temp is the distillation temperature t.
	Temp float64
	// Epochs is the number of HD retraining epochs.
	Epochs int
	// LR is the HD learning rate λ.
	LR float64
	// ManifoldLR is the learning rate of the manifold FC layer.
	ManifoldLR float64
	// BatchSize for feature extraction and batched retraining.
	BatchSize int
	// Seed drives the projection and shuffling.
	Seed int64
	// PackedInference switches PredictDirect/Accuracy to the binary deployment
	// kernel: class hypervectors are sign-quantized to one bit per dimension
	// and scored with XOR + popcount (Sec. VI). Training is unaffected — the
	// real-valued model is quantized at prediction time, trading a small
	// accuracy delta (the paper's binary-model gap) for ~32× smaller class
	// memory and multiply-free scoring.
	PackedInference bool
}

// DefaultConfig mirrors the paper's experimental setup (Sec. VII-A) at
// reproduction scale.
func DefaultConfig(cutLayer, classes int) Config {
	return Config{
		CutLayer:    cutLayer,
		Classes:     classes,
		D:           3000,
		FHat:        100,
		UseManifold: true,
		UseKD:       true,
		Alpha:       0.7,
		Temp:        15,
		Epochs:      10,
		LR:          0.35,
		ManifoldLR:  0.002,
		BatchSize:   32,
		Seed:        1,
	}
}

// Validate rejects configurations the pipeline cannot run with.
func (c Config) Validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("core: %d classes", c.Classes)
	}
	if c.D < 16 {
		return fmt.Errorf("core: hypervector dimension %d too small", c.D)
	}
	if c.UseManifold {
		if c.FHat < 1 {
			return fmt.Errorf("core: F̂ = %d", c.FHat)
		}
		if c.FHat < c.Classes {
			return fmt.Errorf("core: F̂ = %d below class count %d (Sec. VII-A requires F̂ ≥ K)", c.FHat, c.Classes)
		}
	}
	if c.UseKD {
		if c.Temp <= 0 {
			return fmt.Errorf("core: distillation temperature %v", c.Temp)
		}
		if c.Alpha < 0 || c.Alpha > 1 {
			return fmt.Errorf("core: alpha %v outside [0,1]", c.Alpha)
		}
	}
	if c.Epochs < 1 {
		return fmt.Errorf("core: %d epochs", c.Epochs)
	}
	if c.LR <= 0 {
		return fmt.Errorf("core: HD learning rate %v", c.LR)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("core: batch size %d", c.BatchSize)
	}
	return nil
}
