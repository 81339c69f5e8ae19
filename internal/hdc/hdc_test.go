package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"nshd/internal/tensor"
)

const testD = 2048

// isBipolar reports whether every component of h is exactly ±1.
func isBipolar(h Hypervector) bool {
	for _, v := range h {
		if v != 1 && v != -1 {
			return false
		}
	}
	return true
}

func TestRandomBipolarIsBipolar(t *testing.T) {
	h := RandomBipolar(tensor.NewRNG(1), testD)
	if !isBipolar(h) {
		t.Fatal("RandomBipolar must produce ±1 components")
	}
	// Roughly balanced.
	var s float64
	for _, v := range h {
		s += float64(v)
	}
	if math.Abs(s)/testD > 0.1 {
		t.Fatalf("random hypervector unbalanced: mean %v", s/testD)
	}
}

func TestQuasiOrthogonality(t *testing.T) {
	// Independent random hypervectors must have |normalized dot| ≈ 0 with
	// std 1/sqrt(D); allow 5 sigma.
	rng := tensor.NewRNG(2)
	bound := 5.0 / math.Sqrt(testD)
	for trial := 0; trial < 20; trial++ {
		a, b := RandomBipolar(rng, testD), RandomBipolar(rng, testD)
		if sim := NormalizedDot(a, b); math.Abs(sim) > bound {
			t.Fatalf("trial %d: unrelated hypervectors too similar: %v", trial, sim)
		}
	}
}

func TestBindSelfInverse(t *testing.T) {
	rng := tensor.NewRNG(3)
	a, b := RandomBipolar(rng, testD), RandomBipolar(rng, testD)
	got := Bind(a, Bind(a, b))
	for i := range b {
		if got[i] != b[i] {
			t.Fatal("a ⊗ (a ⊗ b) must equal b for bipolar vectors")
		}
	}
}

func TestBindQuasiOrthogonalToInputs(t *testing.T) {
	rng := tensor.NewRNG(4)
	a, b := RandomBipolar(rng, testD), RandomBipolar(rng, testD)
	bound := 5.0 / math.Sqrt(testD)
	ab := Bind(a, b)
	if s := math.Abs(NormalizedDot(ab, a)); s > bound {
		t.Fatalf("binding not orthogonal to operand: %v", s)
	}
}

func TestBindPreservesSimilarity(t *testing.T) {
	// δ(a⊗c, b⊗c) == δ(a, b) exactly for bipolar c.
	rng := tensor.NewRNG(5)
	a, b, c := RandomBipolar(rng, testD), RandomBipolar(rng, testD), RandomBipolar(rng, testD)
	if Dot(Bind(a, c), Bind(b, c)) != Dot(a, b) {
		t.Fatal("binding with a common vector must preserve dot products")
	}
}

func TestBundleSimilarToInputs(t *testing.T) {
	rng := tensor.NewRNG(6)
	hvs := make([]Hypervector, 5)
	for i := range hvs {
		hvs[i] = RandomBipolar(rng, testD)
	}
	sum := Bundle(hvs...)
	sum.Sign()
	for i, h := range hvs {
		sim := NormalizedDot(sum, h)
		// Expected similarity of a sign-bundle of 5 to each input ≈ 0.37.
		if sim < 0.2 {
			t.Fatalf("bundle not similar to input %d: %v", i, sim)
		}
	}
	// And dissimilar to an unrelated vector.
	other := RandomBipolar(rng, testD)
	if s := math.Abs(NormalizedDot(sum, other)); s > 0.12 {
		t.Fatalf("bundle similar to unrelated vector: %v", s)
	}
}

func TestWeightedBundleInto(t *testing.T) {
	acc := NewHypervector(4)
	src := Hypervector{1, -1, 1, -1}
	WeightedBundleInto(acc, 0.5, src)
	WeightedBundleInto(acc, -1.5, src)
	for i := range acc {
		want := float32(-1.0) * src[i]
		if acc[i] != want {
			t.Fatalf("acc[%d] = %v, want %v", i, acc[i], want)
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(7)
	h := RandomBipolar(rng, 257) // prime-ish length, exercises wrap
	for _, k := range []int{0, 1, 100, 257, 300, -3} {
		back := Permute(Permute(h, k), -k)
		for i := range h {
			if back[i] != h[i] {
				t.Fatalf("permute round-trip failed for k=%d", k)
			}
		}
	}
}

func TestPermutePreservesPairwiseDot(t *testing.T) {
	rng := tensor.NewRNG(8)
	a, b := RandomBipolar(rng, testD), RandomBipolar(rng, testD)
	if Dot(Permute(a, 17), Permute(b, 17)) != Dot(a, b) {
		t.Fatal("permutation must preserve pairwise similarity")
	}
	// And decorrelate against the unpermuted self.
	if s := math.Abs(NormalizedDot(Permute(a, 17), a)); s > 5.0/math.Sqrt(testD) {
		t.Fatalf("permuted vector still similar to original: %v", s)
	}
}

func TestSignZeroConvention(t *testing.T) {
	h := Hypervector{0, -0.5, 0.5}
	h.Sign()
	if h[0] != 1 || h[1] != -1 || h[2] != 1 {
		t.Fatalf("Sign convention violated: %v", h)
	}
}

func TestCosineBounds(t *testing.T) {
	rng := tensor.NewRNG(9)
	a := RandomBipolar(rng, testD)
	if c := Cosine(a, a); math.Abs(c-1) > 1e-6 {
		t.Fatalf("self-cosine = %v", c)
	}
	neg := a.Clone()
	for i := range neg {
		neg[i] = -neg[i]
	}
	if c := Cosine(a, neg); math.Abs(c+1) > 1e-6 {
		t.Fatalf("anti-cosine = %v", c)
	}
	if c := Cosine(a, NewHypervector(testD)); c != 0 {
		t.Fatalf("cosine with zero vector = %v", c)
	}
}

// --- projection encoder ---

func TestProjectionEncodeMatchesDefinition(t *testing.T) {
	pr := NewSeededProjection(16, 5, 64)
	v := []float32{0.3, -1.2, 0, 2, 0.7}
	raw, signed := pr.Encode(v)
	for i := 0; i < 64; i++ {
		var want float32
		for f := 0; f < 5; f++ {
			want += v[f] * pr.P.At(f, i)
		}
		if math.Abs(float64(raw[i]-want)) > 1e-5 {
			t.Fatalf("raw[%d] = %v, want %v", i, raw[i], want)
		}
		wantSign := float32(1)
		if want < 0 {
			wantSign = -1
		}
		if signed[i] != wantSign {
			t.Fatalf("signed[%d] = %v, want %v", i, signed[i], wantSign)
		}
	}
}

func TestProjectionBatchMatchesSingle(t *testing.T) {
	pr := NewSeededProjection(17, 8, 256)
	feats := tensor.New(3, 8)
	tensor.NewRNG(18).FillNormal(feats, 0, 1)
	raw, signed := pr.EncodeBatch(feats)
	for i := 0; i < 3; i++ {
		r1, s1 := pr.Encode(feats.Row(i))
		for j := 0; j < 256; j++ {
			if math.Abs(float64(raw.At(i, j)-r1[j])) > 1e-4 {
				t.Fatalf("batch raw mismatch sample %d dim %d", i, j)
			}
			if signed.At(i, j) != s1[j] {
				t.Fatalf("batch sign mismatch sample %d dim %d", i, j)
			}
		}
	}
}

func TestProjectionDecodeApproximatesInverse(t *testing.T) {
	// decode(raw_encode(v)) = (1/D)·P·Pᵀ·v ≈ v because P Pᵀ ≈ D·I.
	pr := NewSeededProjection(19, 10, 8192)
	v := make([]float32, 10)
	tensor.NewRNG(20).FillNormal(tensor.FromSlice(v, 10), 0, 1)
	raw, _ := pr.Encode(v)
	got := tensor.New(1, 10)
	pr.DecodeBatchInto(got, tensor.FromSlice(raw, 1, pr.D))
	for f := range v {
		if math.Abs(float64(got.Data[f]-v[f])) > 0.25 {
			t.Fatalf("decode[%d] = %v, want ≈ %v", f, got.Data[f], v[f])
		}
	}
}

func TestProjectionDecodeBatchMatchesSingle(t *testing.T) {
	pr := NewSeededProjection(21, 6, 128)
	e := tensor.New(2, 128)
	tensor.NewRNG(22).FillNormal(e, 0, 1)
	batch := tensor.New(2, 6)
	pr.DecodeBatchInto(batch, e)
	for i := 0; i < 2; i++ {
		single := tensor.New(1, 6)
		pr.DecodeBatchInto(single, tensor.FromSlice(e.Row(i), 1, 128))
		for f := 0; f < 6; f++ {
			if math.Abs(float64(batch.At(i, f)-single.Data[f])) > 1e-4 {
				t.Fatalf("decode batch mismatch at %d,%d", i, f)
			}
		}
	}
}

func TestProjectionDeterministicBySeed(t *testing.T) {
	a := NewSeededProjection(42, 4, 100)
	b := NewSeededProjection(42, 4, 100)
	for i := range a.P.Data {
		if a.P.Data[i] != b.P.Data[i] {
			t.Fatal("same seed must give same projection")
		}
	}
}

func TestProjectionCosts(t *testing.T) {
	pr := NewSeededProjection(23, 100, 3000)
	if pr.EncodeMACs() != 300000 {
		t.Fatalf("EncodeMACs = %d", pr.EncodeMACs())
	}
	if pr.MemoryBytes(false) != 100*3000*4 {
		t.Fatalf("dense bytes = %d", pr.MemoryBytes(false))
	}
	if pr.MemoryBytes(true) >= pr.MemoryBytes(false)/30 {
		t.Fatalf("packed bytes %d not ~32x smaller than %d", pr.MemoryBytes(true), pr.MemoryBytes(false))
	}
}

// Property: encoding preserves similarity ordering — nearby feature vectors
// produce more similar hypervectors than far ones.
func TestProjectionLocalityProperty(t *testing.T) {
	pr := NewSeededProjection(24, 16, 4096)
	vrng := tensor.NewRNG(25)
	for trial := 0; trial < 10; trial++ {
		v := make([]float32, 16)
		vrng.FillNormal(tensor.FromSlice(v, 16), 0, 1)
		near := make([]float32, 16)
		far := make([]float32, 16)
		for i := range v {
			near[i] = v[i] + 0.05*float32(vrng.NormFloat64())
			far[i] = float32(vrng.NormFloat64())
		}
		_, hv := pr.Encode(v)
		_, hn := pr.Encode(near)
		_, hf := pr.Encode(far)
		if NormalizedDot(hv, hn) <= NormalizedDot(hv, hf) {
			t.Fatalf("trial %d: encoding does not preserve locality", trial)
		}
	}
}

// --- nonlinear encoder ---

func TestNonlinearEncoderBipolar(t *testing.T) {
	ne := NewNonlinearEncoder(tensor.NewRNG(26), 8, 512, 1)
	v := make([]float32, 8)
	tensor.NewRNG(27).FillNormal(tensor.FromSlice(v, 8), 0, 1)
	h := ne.Encode(v)
	if !isBipolar(h) {
		t.Fatal("nonlinear encoding must be bipolar")
	}
}

func TestNonlinearBatchMatchesSingle(t *testing.T) {
	ne := NewNonlinearEncoder(tensor.NewRNG(28), 6, 256, 1)
	feats := tensor.New(4, 6)
	tensor.NewRNG(29).FillNormal(feats, 0, 1)
	batch := ne.EncodeBatch(feats)
	for i := 0; i < 4; i++ {
		single := ne.Encode(feats.Row(i))
		for j := 0; j < 256; j++ {
			if batch.At(i, j) != single[j] {
				t.Fatalf("nonlinear batch mismatch sample %d dim %d", i, j)
			}
		}
	}
}

func TestNonlinearLocality(t *testing.T) {
	ne := NewNonlinearEncoder(tensor.NewRNG(30), 16, 4096, 0.5)
	vrng := tensor.NewRNG(31)
	v := make([]float32, 16)
	vrng.FillNormal(tensor.FromSlice(v, 16), 0, 1)
	near := make([]float32, 16)
	far := make([]float32, 16)
	for i := range v {
		near[i] = v[i] + 0.02*float32(vrng.NormFloat64())
		far[i] = float32(vrng.NormFloat64())
	}
	hv, hn, hf := ne.Encode(v), ne.Encode(near), ne.Encode(far)
	if NormalizedDot(hv, hn) <= NormalizedDot(hv, hf) {
		t.Fatal("nonlinear encoding must preserve locality")
	}
}

// --- item and level memories ---

// TestItemMemoryStableAndCleanup: Get returns one hypervector per name, and
// a copy of one with 20 % of its components flipped is still nearest to it.
func TestItemMemoryStableAndCleanup(t *testing.T) {
	im := NewItemMemory(tensor.NewRNG(32), testD)
	a := im.Get("apple")
	if got := im.Get("apple"); &got[0] != &a[0] {
		t.Fatal("Get must return the same hypervector for the same name")
	}
	names := []string{"apple", "banana", "cherry"}
	noisy := a.Clone()
	rng := tensor.NewRNG(33)
	for i := 0; i < testD/5; i++ {
		idx := rng.Intn(testD)
		noisy[idx] = -noisy[idx]
	}
	best, bestSim := "", math.Inf(-1)
	for _, name := range names {
		if sim := Dot(im.Get(name), noisy); sim > bestSim {
			best, bestSim = name, sim
		}
	}
	if best != "apple" {
		t.Fatalf("nearest to noisy apple = %q", best)
	}
	if bestSim < float64(testD)/3 {
		t.Fatalf("cleanup similarity too low: %v", bestSim)
	}
}

// Property: bind distributivity over bundle — a ⊗ (b ⊕ c) == (a⊗b) ⊕ (a⊗c).
func TestBindDistributesOverBundleProperty(t *testing.T) {
	rng := tensor.NewRNG(36)
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		a, b, c := RandomBipolar(r, 128), RandomBipolar(r, 128), RandomBipolar(r, 128)
		lhs := Bind(a, Bundle(b, c))
		rhs := Bundle(Bind(a, b), Bind(a, c))
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

// Property: permutation distributes over binding — ρ(a ⊗ b) == ρ(a) ⊗ ρ(b).
func TestPermuteDistributesOverBindProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := tensor.NewRNG(seed)
		k := int(kRaw % 97)
		a, b := RandomBipolar(r, 97), RandomBipolar(r, 97)
		lhs := Permute(Bind(a, b), k)
		rhs := Bind(Permute(a, k), Permute(b, k))
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: bundle similarity is invariant under a common binding key —
// δ(sign(Σhᵢ)⊗k, h₀⊗k) == δ(sign(Σhᵢ), h₀).
func TestBundleBindInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := tensor.NewRNG(seed)
		const d = 256
		h0, h1, h2 := RandomBipolar(r, d), RandomBipolar(r, d), RandomBipolar(r, d)
		key := RandomBipolar(r, d)
		b := Bundle(h0, h1, h2)
		b.Sign()
		lhs := Dot(Bind(b, key), Bind(h0, key))
		rhs := Dot(b, h0)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeBatchIntoMatchesEncodeBatch(t *testing.T) {
	rng := tensor.NewRNG(31)
	pr := NewSeededProjection(31, 24, 70) // D not divisible by 64
	features := tensor.New(9, 24)
	rng.FillNormal(features, 0, 1)
	wantRaw, wantSigned := pr.EncodeBatch(features)

	raw := tensor.New(9, 70)
	signed := tensor.New(9, 70)
	scratch := make([]float32, tensor.GemmScratch())
	pr.EncodeBatchInto(features, raw, signed, scratch)
	for i := range wantRaw.Data {
		if raw.Data[i] != wantRaw.Data[i] {
			t.Fatalf("raw[%d]=%v, want %v", i, raw.Data[i], wantRaw.Data[i])
		}
		if signed.Data[i] != wantSigned.Data[i] {
			t.Fatalf("signed[%d]=%v, want %v", i, signed.Data[i], wantSigned.Data[i])
		}
	}

	// Aliased form: signed == raw for callers that only keep the bipolar HVs.
	alias := tensor.New(9, 70)
	pr.EncodeBatchInto(features, alias, alias, scratch)
	for i := range wantSigned.Data {
		if alias.Data[i] != wantSigned.Data[i] {
			t.Fatalf("aliased signed[%d]=%v, want %v", i, alias.Data[i], wantSigned.Data[i])
		}
	}

	if a := testing.AllocsPerRun(20, func() {
		pr.EncodeBatchInto(features, raw, signed, scratch)
	}); a != 0 {
		t.Fatalf("EncodeBatchInto allocated %.1f times per run", a)
	}

	// Packed storage: 24 rows of ⌈70/64⌉ = 2 words.
	if got := pr.MemoryBytes(true); got != 24*2*8 {
		t.Fatalf("packed MemoryBytes = %d, want %d", got, 24*2*8)
	}
}
