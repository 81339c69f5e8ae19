package nn_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// mergeTwoPass is the merge mergeWeightGrad replaced, kept as its reference:
// the chunk accumulators summed into chunk 0's in chunk order, then that sum
// added to wg at its transposed place.
func mergeTwoPass(wg, acc []float32, chunks, accLen, kdim, outC int) {
	dwLen := kdim * outC
	for ci := 1; ci < chunks; ci++ {
		tensor.Accumulate(acc[:dwLen], acc[ci*accLen:][:dwLen])
	}
	for p := 0; p < kdim; p++ {
		for oc := 0; oc < outC; oc++ {
			wg[oc*kdim+p] += acc[p*outC+oc]
		}
	}
}

// TestMergeWeightGradMatchesTwoPass runs the blocked merge of Conv2D's chunk
// accumulators against the two-pass reference on every Conv2D shape of the
// model zoo (kdim × OutC, read off the weights), at the chunk counts a batch
// of 32 makes (2 and 8), one, and an odd count, with the accumulators'
// bias tails in between, and requires the same weight-gradient bits.
func TestMergeWeightGradMatchesTwoPass(t *testing.T) {
	shapes := map[[2]int]bool{}
	for _, name := range cnn.Names() {
		m, err := cnn.Build(name, tensor.NewRNG(1), 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Full().Params() {
			if s := p.W.Shape; len(s) == 4 && strings.HasPrefix(p.Name, "conv") {
				shapes[[2]int{s[1] * s[2] * s[3], s[0]}] = true
			}
		}
	}
	if len(shapes) < 10 {
		t.Fatalf("found %d zoo Conv2D shapes", len(shapes))
	}
	for shape := range shapes {
		kdim, outC := shape[0], shape[1]
		accLen := kdim*outC + outC
		for _, chunks := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%dx%d_c%d", kdim, outC, chunks), func(t *testing.T) {
				acc := saltedFloats(int64(kdim+chunks), chunks*accLen)
				wg := saltedFloats(int64(outC), kdim*outC)
				accRef, wgRef := append([]float32(nil), acc...), append([]float32(nil), wg...)
				nn.MergeWeightGrad(wg, acc, chunks, accLen, kdim, outC)
				mergeTwoPass(wgRef, accRef, chunks, accLen, kdim, outC)
				for i := range wg {
					if math.Float32bits(wg[i]) != math.Float32bits(wgRef[i]) {
						t.Fatalf("wg[%d] = %v, two-pass %v", i, wg[i], wgRef[i])
					}
				}
			})
		}
	}
}

// saltedFloats is n normal values with −0, +0, subnormals and one NaN salted
// in.
func saltedFloats(seed int64, n int) []float32 {
	x := tensor.New(n)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	for i := range x.Data {
		switch i % 97 {
		case 3:
			x.Data[i] = float32(math.Copysign(0, -1))
		case 7:
			x.Data[i] = 0
		case 11:
			x.Data[i] = math.Float32frombits(uint32(i%1000) + 1)
		}
	}
	if n > 50 {
		x.Data[50] = float32(math.NaN())
	}
	return x.Data
}

// BenchmarkMergeWeightGrad times the weight-gradient merges of one VGG16/4
// step at batch 32 — its 13 convs as (kdim, OutC, chunks), the chunk count
// from convStackChunk at each map size — blocked against the two-pass
// reference, each layer's accumulators fresh in cache as after its backward
// products.
func BenchmarkMergeWeightGrad(b *testing.B) {
	layers := [][3]int{{27, 16, 8}, {144, 16, 8}, {144, 32, 8}, {288, 32, 8}, {288, 64, 8}, {576, 64, 8}, {576, 64, 8},
		{576, 128, 2}, {1152, 128, 2}, {1152, 128, 2}, {1152, 128, 2}, {1152, 128, 2}, {1152, 128, 2}}
	type layer struct {
		wg, acc, fresh             []float32
		kdim, outC, chunks, accLen int
	}
	var ls []layer
	for _, l := range layers {
		accLen := l[0]*l[1] + l[1]
		fresh := tensor.New(l[2] * accLen)
		tensor.NewRNG(int64(l[0])).FillNormal(fresh, 0, 1)
		ls = append(ls, layer{make([]float32, l[0]*l[1]), make([]float32, fresh.Len()), fresh.Data, l[0], l[1], l[2], accLen})
	}
	for _, m := range []struct {
		name  string
		merge func(wg, acc []float32, chunks, accLen, kdim, outC int)
	}{{"blocked", nn.MergeWeightGrad}, {"two-pass", mergeTwoPass}} {
		b.Run(m.name, func(b *testing.B) {
			var merging time.Duration
			for i := 0; i < b.N; i++ {
				for _, l := range ls {
					copy(l.acc, l.fresh)
					start := time.Now()
					m.merge(l.wg, l.acc, l.chunks, l.accLen, l.kdim, l.outC)
					merging += time.Since(start)
				}
			}
			b.ReportMetric(float64(merging.Microseconds())/float64(b.N), "µs/step")
		})
	}
}
