package core

import (
	"testing"

	"nshd/internal/dataset"
	"nshd/internal/tensor"
)

// Empty batches used to slip through as nil tensors (ExtractFeatures) and
// NaN scores (Accuracy's divide by zero). They must instead produce empty,
// well-shaped results.
func TestEmptyBatchEdgeCases(t *testing.T) {
	zoo := tinyZoo(71, 4)
	p, err := New(zoo, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	empty := tensor.New(0, 3, 16, 16)

	feats := p.ExtractFeatures(empty)
	if feats == nil {
		t.Fatal("ExtractFeatures returned nil for an empty batch")
	}
	wantShape := append([]int{0}, p.FeatShape...)
	for i, s := range wantShape {
		if feats.Shape[i] != s {
			t.Fatalf("empty feature shape %v, want %v", feats.Shape, wantShape)
		}
	}

	if preds := p.PredictDirect(empty); len(preds) != 0 {
		t.Fatalf("PredictDirect on empty batch returned %v", preds)
	}
	if preds := p.PredictDirect(nil); len(preds) != 0 {
		t.Fatalf("PredictDirect(nil) returned %v", preds)
	}

	hvs := p.QueryHVs(empty)
	if hvs == nil || hvs.Shape[0] != 0 || hvs.Shape[1] != p.Cfg.D {
		t.Fatalf("QueryHVs on empty batch returned %v", hvs)
	}

	d := &dataset.Dataset{Name: "empty", Images: empty, Labels: nil, Classes: 4}
	if acc := p.Accuracy(d); acc != 0 {
		t.Fatalf("Accuracy on empty dataset = %v, want 0 (not NaN)", acc)
	}
	if acc := p.AccuracyOnFeatures(feats, nil); acc != 0 {
		t.Fatalf("AccuracyOnFeatures on empty features = %v, want 0", acc)
	}
}

// A batch of another image size used to run the extractor on the smaller map
// and copy its shorter features into slots sized for the zoo's input, so the
// labels came from a mix of samples and zeros. The reference path must refuse
// such a batch, as the engine does.
func TestWrongImageShapeRejected(t *testing.T) {
	zoo := tinyZoo(72, 4)
	p, err := New(zoo, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	small := tensor.New(4, 3, 12, 12)
	tensor.NewRNG(73).FillNormal(small, 0, 1)
	const want = "core: image shape [4 3 12 12], pipeline built for [N 3 16 16]"
	for _, c := range []struct {
		name string
		call func()
	}{
		{"ExtractFeatures", func() { p.ExtractFeatures(small) }},
		{"PredictDirect", func() { p.PredictDirect(small) }},
		{"QueryHVs", func() { p.QueryHVs(small) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("%s: panic %v, want %q", c.name, r, want)
				}
			}()
			c.call()
		}()
	}
	d := &dataset.Dataset{Name: "small", Images: small, Labels: []int{0, 1, 2, 3}, Classes: 4}
	if _, err := p.Train(d, nil); err == nil || err.Error() != want {
		t.Fatalf("Train: error %v, want %q", err, want)
	}
}
