package quant

import (
	"math"
	"testing"
	"testing/quick"

	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.New(1000)
	rng.FillNormal(x, 0, 3)
	q := Quantize(x)
	d := q.Dequantize()
	bound := float64(q.MaxAbsError()) + 1e-6
	for i := range x.Data {
		if math.Abs(float64(x.Data[i]-d.Data[i])) > bound {
			t.Fatalf("reconstruction error %v exceeds bound %v", x.Data[i]-d.Data[i], bound)
		}
	}
}

func TestQuantizeZeroTensor(t *testing.T) {
	x := tensor.New(8)
	q := Quantize(x)
	for _, v := range q.Data {
		if v != 0 {
			t.Fatal("zero tensor must quantize to zeros")
		}
	}
	if q.Scale != 1 {
		t.Fatalf("zero tensor scale = %v", q.Scale)
	}
}

func TestQuantizeExtremesSaturate(t *testing.T) {
	x := tensor.FromSlice([]float32{-127, 127}, 2)
	q := Quantize(x)
	if q.Data[0] != -127 || q.Data[1] != 127 {
		t.Fatalf("quantized extremes %v", q.Data)
	}
}

// Property: quantize∘dequantize is idempotent (a second round trip changes
// nothing).
func TestQuantizeIdempotentProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		x := tensor.FromSlice(append([]float32(nil), vals...), len(vals))
		d1 := Quantize(x).Dequantize()
		d2 := Quantize(d1).Dequantize()
		for i := range d1.Data {
			if math.Abs(float64(d1.Data[i]-d2.Data[i])) > 1e-4*math.Max(1, math.Abs(float64(d1.Data[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedHDTracksFloatPredictions(t *testing.T) {
	// Build an HD model from prototype-noise data and verify the integer
	// path agrees with the float cosine path almost always.
	const k, d, n = 5, 1024, 100
	rng := tensor.NewRNG(5)
	protos := make([][]float32, k)
	for i := range protos {
		p := tensor.New(d)
		rng.FillBipolar(p)
		protos[i] = p.Data
	}
	hvs := tensor.New(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		y := i % k
		labels[i] = y
		row := hvs.Row(i)
		copy(row, protos[y])
		for j := range row {
			if rng.Float64() < 0.25 {
				row[j] = -row[j]
			}
		}
	}
	m := hdlearn.NewModel(k, d)
	m.InitBundle(hvs, labels)
	m.TrainMASS(hvs, labels, hdlearn.MASSConfig{Epochs: 3, LR: 0.3}, nil)

	q := QuantizeHD(m)
	gotQ, err := q.PredictBatch(hvs)
	if err != nil {
		t.Fatal(err)
	}
	gotF := m.PredictBatch(hvs)
	agree := 0
	for i := range gotF {
		if gotF[i] == gotQ[i] {
			agree++
		}
	}
	if float64(agree)/float64(n) < 0.97 {
		t.Fatalf("int8 HD path agrees with float on only %d/%d", agree, n)
	}
	if q.MemoryBytes() != k*d {
		t.Fatalf("MemoryBytes = %d", q.MemoryBytes())
	}
}

func TestQuantizedHDShapeError(t *testing.T) {
	m := hdlearn.NewModel(2, 64)
	q := QuantizeHD(m)
	if _, err := q.PredictBatch(tensor.New(3, 32)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestQuantizedHDEmptyModelError(t *testing.T) {
	for _, q := range []*HDModel8{{K: 0, D: 64}, {K: 3, D: 0}, {}} {
		if _, err := q.PredictBatch(tensor.New(2, q.D)); err == nil {
			t.Fatalf("empty model K=%d D=%d must error, not panic", q.K, q.D)
		}
	}
}

// TestQuantizedHDParallelMatchesSerial checks the worker-pool split of
// PredictBatch against an inline serial re-computation.
func TestQuantizedHDParallelMatchesSerial(t *testing.T) {
	const k, d, n = 7, 512, 300
	rng := tensor.NewRNG(9)
	m := hdlearn.NewModel(k, d)
	hvs := tensor.New(n, d)
	rng.FillBipolar(hvs)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % k
	}
	m.InitBundle(hvs, labels)
	q := QuantizeHD(m)

	got, err := q.PredictBatch(hvs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := hvs.Row(i)
		best := int32(math.MinInt32)
		bestK := 0
		for c := 0; c < q.K; c++ {
			var acc int32
			cls := q.Rows[c]
			for j, v := range row {
				if v >= 0 {
					acc += int32(cls[j])
				} else {
					acc -= int32(cls[j])
				}
			}
			if acc > best {
				best, bestK = acc, c
			}
		}
		if got[i] != bestK {
			t.Fatalf("query %d: parallel %d, serial %d", i, got[i], bestK)
		}
	}
}
