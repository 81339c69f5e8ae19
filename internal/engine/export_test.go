package engine

import (
	"testing"

	"nshd/internal/tensor"
)

// SetSplitFloor sets the batch split's work floor (MACs per part) for engines
// compiled during the test, so small fixtures reach both sides of it.
func SetSplitFloor(t testing.TB, macs int64) {
	saved := splitMinMACs
	splitMinMACs = macs
	t.Cleanup(func() { splitMinMACs = saved })
}

// PanicInStages makes every call through e's feature stages panic until the
// test ends, from a stage in front of the extractor.
func PanicInStages(t testing.TB, e *Engine) {
	saved := e.stages
	e.stages = append([]Stage{panicStage{}}, saved...)
	t.Cleanup(func() { e.stages = saved })
}

type panicStage struct{}

func (panicStage) Name() string { return "panic" }
func (panicStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	panic("engine test: stage failed")
}
