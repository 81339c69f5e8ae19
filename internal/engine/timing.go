package engine

import (
	"fmt"
	"time"

	"nshd/internal/tensor"
)

// StageTime is one stage's measured wall time for a chunk. Stages that can
// attribute time internally (the extractor's layers and fused blocks, the
// tail's project and score halves) report the split in Sub.
type StageTime struct {
	Name    string
	Seconds float64
	Sub     []StageTime `json:",omitempty"`
}

// timedStage is implemented by stages that can break their Run time into
// sub-steps. runTimed must execute the exact Run schedule.
type timedStage interface {
	runTimed(x *tensor.Tensor, ar *tensor.Arena, sub *[]StageTime) *tensor.Tensor
}

func (s extractStage) runTimed(x *tensor.Tensor, ar *tensor.Arena, sub *[]StageTime) *tensor.Tensor {
	return s.ex.ForwardInferTimed(x, ar, func(name string, seconds float64) {
		*sub = append(*sub, StageTime{Name: name, Seconds: seconds})
	})
}

// mergeMinSub folds one rep's sub-step times into the accumulated minimum,
// index-aligned (every rep runs the identical schedule).
func mergeMinSub(dst *[]StageTime, sub []StageTime, first bool) {
	if first || len(*dst) != len(sub) {
		*dst = sub
		return
	}
	for i := range sub {
		if sub[i].Seconds < (*dst)[i].Seconds {
			(*dst)[i].Seconds = sub[i].Seconds
		}
	}
}

// TimeStages runs up to one chunk of images through the stage chain reps
// times and reports each stage's minimum wall time, with the classifier as
// the final row — the per-stage probe behind nshd-info and /metrics.
func (e *Engine) TimeStages(images *tensor.Tensor, reps int) ([]StageTime, error) {
	if err := e.checkImages(images); err != nil {
		return nil, err
	}
	n := images.Shape[0]
	if n == 0 {
		return nil, fmt.Errorf("engine: TimeStages needs at least one image")
	}
	if n > e.chunk {
		n = e.chunk
	}
	if reps < 1 {
		reps = 1
	}
	out := make([]StageTime, len(e.stages)+1)
	preds := make([]int, n)
	ar := e.arenas.Get()
	defer e.arenas.Put(ar)
	for r := 0; r < reps; r++ {
		ar.Reset()
		x := ar.Alloc(n, e.inShape[0], e.inShape[1], e.inShape[2])
		copy(x.Data, images.Data[:n*e.sampleLen])
		for i, stg := range e.stages {
			var sub []StageTime
			t0 := time.Now()
			if ts, ok := stg.(timedStage); ok {
				x = ts.runTimed(x, ar, &sub)
			} else {
				x = stg.Run(x, ar)
			}
			d := time.Since(t0).Seconds()
			if r == 0 || d < out[i].Seconds {
				out[i].Name, out[i].Seconds = stg.Name(), d
			}
			mergeMinSub(&out[i].Sub, sub, r == 0)
		}
		var project float64
		t0 := time.Now()
		e.tail.run(x, preds, ar, &project)
		last := len(e.stages)
		if d := time.Since(t0).Seconds(); r == 0 || d < out[last].Seconds {
			// The fastest rep's split: the panel GEMM (with folded head and
			// bias) vs what consumes its blocks (sign or pack, scoring, argmax).
			out[last] = StageTime{Name: e.tail.name, Seconds: d, Sub: []StageTime{
				{Name: "project", Seconds: project}, {Name: "score", Seconds: d - project}}}
		}
	}
	return out, nil
}
