package core

import "nshd/internal/tensor"

// TrainRNG exposes the pipeline's shuffle stream to the external test
// package, whose reference training loop must draw from it exactly as
// TrainOnFeatures does.
func (p *Pipeline) TrainRNG() *tensor.RNG { return p.rng }
