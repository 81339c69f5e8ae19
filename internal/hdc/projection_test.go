package hdc

import (
	"testing"

	"nshd/internal/tensor"
)

// awkward (F, D, N) triples: dimensions off the GEMM's 256-wide blocks and
// 16-wide strips, single samples, empty batches.
var encodeShapes = []struct{ f, d, n int }{
	{33, 70, 5},    // D below one strip's word, ragged
	{100, 257, 1},  // one column past the NC block, single sample
	{100, 256, 4},  // exactly one NC block
	{17, 100, 0},   // empty batch
	{257, 530, 3},  // F spans two K blocks with remainder
	{5, 15, 2},     // D below one strip: pure Go tail
	{100, 3000, 1}, // paper shape, single-sample serving case
}

// TestEncodeBatchIntoAgreesAtAwkwardShapes: the serial serving encode and
// the parallel training encode produce bit-identical raw and signed outputs
// at shapes that exercise every kernel tail.
func TestEncodeBatchIntoAgreesAtAwkwardShapes(t *testing.T) {
	for _, s := range encodeShapes {
		pr := NewSeededProjection(int64(s.f+s.d), s.f, s.d)
		features := tensor.New(s.n, s.f)
		tensor.NewRNG(11).FillNormal(features, 0, 1)

		wantRaw, wantSigned := pr.EncodeBatch(features)

		raw := tensor.New(s.n, s.d)
		signed := tensor.New(s.n, s.d)
		scratch := make([]float32, tensor.GemmScratch())
		pr.EncodeBatchInto(features, raw, signed, scratch)
		for i := range wantRaw.Data {
			if raw.Data[i] != wantRaw.Data[i] {
				t.Fatalf("F=%d D=%d N=%d: raw differs at %d", s.f, s.d, s.n, i)
			}
			if signed.Data[i] != wantSigned.Data[i] {
				t.Fatalf("F=%d D=%d N=%d: signed differs at %d", s.f, s.d, s.n, i)
			}
		}

		// Aliased form: signed overwrites raw in place.
		aliased := tensor.New(s.n, s.d)
		pr.EncodeBatchInto(features, aliased, aliased, scratch)
		for i := range wantSigned.Data {
			if aliased.Data[i] != wantSigned.Data[i] {
				t.Fatalf("F=%d D=%d N=%d: aliased signed differs at %d", s.f, s.d, s.n, i)
			}
		}
	}
}

// TestEncodeBatchRematMatchesStored: encoding through rematerialized panels
// (the stored P never read) is bit-identical to the stored-matrix encode at
// every awkward shape.
func TestEncodeBatchRematMatchesStored(t *testing.T) {
	for _, s := range encodeShapes {
		pr := NewSeededProjection(int64(3*s.f+s.d), s.f, s.d)
		features := tensor.New(s.n, s.f)
		tensor.NewRNG(7).FillNormal(features, 0, 1)

		wantRaw := tensor.New(s.n, s.d)
		wantSigned := tensor.New(s.n, s.d)
		pr.EncodeBatchInto(features, wantRaw, wantSigned, make([]float32, tensor.GemmScratch()))

		raw := tensor.New(s.n, s.d)
		signed := tensor.New(s.n, s.d)
		tensor.MatMulPanelsInto(raw, features, tensor.RematPanels(pr.Gen()), make([]float32, tensor.PanelScratch()))
		tensor.SignInto(signed, raw)
		for i := range wantRaw.Data {
			if raw.Data[i] != wantRaw.Data[i] {
				t.Fatalf("F=%d D=%d N=%d: remat raw differs at %d", s.f, s.d, s.n, i)
			}
			if signed.Data[i] != wantSigned.Data[i] {
				t.Fatalf("F=%d D=%d N=%d: remat signed differs at %d", s.f, s.d, s.n, i)
			}
		}
	}
}

// TestSeededProjectionDeterminism: the seed fully defines the matrix, the
// generator regenerates it exactly, and serving bytes collapse to the seed.
func TestSeededProjectionDeterminism(t *testing.T) {
	a := NewSeededProjection(123, 40, 333)
	b := NewSeededProjection(123, 40, 333)
	for i := range a.P.Data {
		if a.P.Data[i] != b.P.Data[i] {
			t.Fatalf("same seed, different matrices at %d", i)
		}
	}
	regen := tensor.New(40, 333)
	a.Gen().FillInto(regen)
	for i := range a.P.Data {
		if regen.Data[i] != a.P.Data[i] {
			t.Fatalf("generator disagrees with stored P at %d", i)
		}
	}
	if got := a.ServingBytes(true); got != 8 {
		t.Fatalf("seeded ServingBytes(remat) = %d, want 8", got)
	}
	if got := a.ServingBytes(false); got != 40*333*4 {
		t.Fatalf("ServingBytes(stored) = %d, want %d", got, 40*333*4)
	}
	rng := tensor.NewRNG(9)
	unseeded := NewProjection(rng, 10, 64)
	if unseeded.Gen() != nil {
		t.Fatal("unseeded projection returned a generator")
	}
	if got := unseeded.ServingBytes(true); got != 10*64*4 {
		t.Fatalf("unseeded ServingBytes(remat) = %d, want dense %d", got, 10*64*4)
	}
}
