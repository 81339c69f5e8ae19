package hdc

import (
	"fmt"
	"math"
)

// The per-sample forms the tests check the batch paths and the HD
// properties against.

// NormalizedDot returns δ(a,b)/D, the per-dimension similarity in [-1, 1]
// for bipolar inputs. This is the scale MASS retraining operates on.
func NormalizedDot(a, b Hypervector) float64 {
	return Dot(a, b) / float64(len(a))
}

// Encode maps one feature vector to a bipolar hypervector.
func (ne *NonlinearEncoder) Encode(v []float32) Hypervector {
	if len(v) != ne.F {
		panic(fmt.Sprintf("hdc: nonlinear Encode got %d features, want %d", len(v), ne.F))
	}
	h := NewHypervector(ne.D)
	for f, val := range v {
		if val == 0 {
			continue
		}
		row := ne.W.Row(f)
		for i, w := range row {
			h[i] += val * w
		}
	}
	for i := range h {
		c := math.Cos(float64(h[i] + ne.Phase[i]))
		if c < 0 {
			h[i] = -1
		} else {
			h[i] = 1
		}
	}
	return h
}
