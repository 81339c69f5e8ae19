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

// QueryHVs returns the signed query hypervectors ([N, D]) of a batch as the
// serving chain computes them: the batch cut into the parts PredictInto runs
// (Engine.split), each part through the feature stages and then the tail's
// block loop, every projection block signed in place and copied out. It runs
// on the caller's goroutine and on an arena of its own, so the engine's
// arenas, and the steady state its gates measure, are untouched.
func QueryHVs(e *Engine, images *tensor.Tensor) (*tensor.Tensor, error) {
	if err := e.checkImages(images); err != nil {
		return nil, err
	}
	n := images.Shape[0]
	out := tensor.New(n, e.d)
	ar := tensor.NewArena()
	parts := e.split(n)
	for i := 0; i < parts && n > 0; i++ {
		start, end := i*n/parts, (i+1)*n/parts
		x := e.runChunk(ar, images.Data[start*e.sampleLen:end*e.sampleLen], end-start)
		e.tail.forBlocks(x, ar, nil, func(blk []float32, rows, w, c0 int) {
			tensor.SignInPlace(blk)
			for r := 0; r < rows; r++ {
				copy(out.Data[(start+r)*e.d+c0:][:w], blk[r*w:(r+1)*w])
			}
		})
	}
	return out, nil
}
