package engine_test

import (
	"testing"

	"nshd/internal/core"
	"nshd/internal/engine"
)

// shardD is deliberately awkward: 10 GEMM blocks (2333 = 9·256 + 29), not
// divisible by 2, 3 or 8, ragged 29-column last block, D % 64 ≠ 0.
const shardD = 2333

// TestShardBounds pins the planner's contract: 256-aligned boundaries,
// contiguous tiling, balanced to within one block, errors on impossible
// splits.
func TestShardBounds(t *testing.T) {
	for _, of := range []int{1, 2, 3, 8, 10} {
		bounds, err := engine.ShardBounds(shardD, of)
		if err != nil {
			t.Fatalf("of=%d: %v", of, err)
		}
		if len(bounds) != of {
			t.Fatalf("of=%d: %d bounds", of, len(bounds))
		}
		cursor := 0
		for s, b := range bounds {
			if b[0] != cursor {
				t.Fatalf("of=%d shard %d: lo=%d, cursor=%d", of, s, b[0], cursor)
			}
			if b[0]%256 != 0 {
				t.Fatalf("of=%d shard %d: lo=%d not 256-aligned", of, s, b[0])
			}
			if b[1] <= b[0] {
				t.Fatalf("of=%d shard %d: empty [%d,%d)", of, s, b[0], b[1])
			}
			cursor = b[1]
		}
		if cursor != shardD {
			t.Fatalf("of=%d: tiling ends at %d", of, cursor)
		}
	}
	if _, err := engine.ShardBounds(70, 2); err == nil {
		t.Fatal("70 dims cannot split into 2 non-empty 256-blocks")
	}
	if _, err := engine.ShardBounds(shardD, 0); err == nil {
		t.Fatal("of=0 should error")
	}
	if _, err := engine.ShardBounds(shardD, 11); err == nil {
		t.Fatal("more shards than blocks should error")
	}
}

// TestShardedScoresBitExact is the sharding property: for every tail case
// (prepacked/remat/planner-folded) × kernel (packed/float) × shard count
// S ∈ {1, 2, 3, 8}, the merged shard partials reproduce the unsharded
// engine bit-for-bit — argmax AND scores — with the single-engine path
// (S=1) running through the very same partial-scorer code, and the shards'
// QueryHVs concatenating to the full engine's hypervectors.
func TestShardedScoresBitExact(t *testing.T) {
	kernels := []struct {
		name   string
		packed bool
		wide   int // widen the class memory to this many classes
	}{
		{"packed", true, 0},
		{"float", false, 0},
		// Two 16-class strips and a ragged class: shards slice the strips.
		{"float-K33", false, 33},
	}
	for _, kn := range kernels {
		for _, mode := range tailCases() {
			p, test := buildPipeline(t, mode.mut(func(c *core.Config) {
				c.D = shardD
				c.PackedInference = kn.packed
			}))
			if kn.wide > 0 {
				widenClasses(p, kn.wide)
			}
			n := test.Images.Shape[0]
			t.Run(mode.name+"/"+kn.name, func(t *testing.T) {
				full, err := engine.Compile(p, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				mode.checkStages(t, full)
				wantPreds, err := full.Predict(test.Images)
				if err != nil {
					t.Fatal(err)
				}
				fullHVs, err := full.QueryHVs(test.Images)
				if err != nil {
					t.Fatal(err)
				}
				k := full.Classes()

				// Reference scores: the full engine's own partials, merged.
				fullPart := full.NewPartials(0)
				if err := full.PartialInto(test.Images, fullPart); err != nil {
					t.Fatal(err)
				}
				if lo, hi := full.Shard(); lo != 0 || hi != shardD {
					t.Fatalf("full engine shard [%d,%d)", lo, hi)
				}
				wantScores := make([]float64, n*k)
				mergedPreds := make([]int, n)
				if err := engine.MergeScores(mergedPreds, wantScores, []*engine.PartialScores{fullPart}); err != nil {
					t.Fatal(err)
				}
				// S=1 through the partial path must reproduce Predict exactly.
				for i := range wantPreds {
					if mergedPreds[i] != wantPreds[i] {
						t.Fatalf("S=1 partial-path pred %d: %d != Predict's %d", i, mergedPreds[i], wantPreds[i])
					}
				}

				for _, S := range []int{2, 3, 8} {
					bounds, err := engine.ShardBounds(shardD, S)
					if err != nil {
						t.Fatal(err)
					}
					parts := make([]*engine.PartialScores, S)
					for s := 0; s < S; s++ {
						sh, err := engine.CompileShard(p, s, S, mode.opts...)
						if err != nil {
							t.Fatalf("S=%d shard %d: %v", S, s, err)
						}
						if lo, hi := sh.Shard(); lo != bounds[s][0] || hi != bounds[s][1] {
							t.Fatalf("S=%d shard %d: range [%d,%d), want %v", S, s, lo, hi, bounds[s])
						}
						if sh.ModelVersion() != full.ModelVersion() {
							t.Fatalf("S=%d shard %d: version %x != full %x", S, s, sh.ModelVersion(), full.ModelVersion())
						}
						ps := sh.NewPartials(0)
						if err := sh.PartialInto(test.Images, ps); err != nil {
							t.Fatal(err)
						}
						parts[s] = ps

						// Shard QueryHVs are the full engine's columns.
						hv, err := sh.QueryHVs(test.Images)
						if err != nil {
							t.Fatal(err)
						}
						lo, w := bounds[s][0], bounds[s][1]-bounds[s][0]
						for i := 0; i < n; i++ {
							for c := 0; c < w; c++ {
								if hv.Data[i*w+c] != fullHVs.Data[i*shardD+lo+c] {
									t.Fatalf("S=%d shard %d: QueryHVs differ at (%d,%d)", S, s, i, c)
								}
							}
						}
					}
					// Merge out of order on purpose: reduce must reorder.
					if S > 1 {
						parts[0], parts[S-1] = parts[S-1], parts[0]
					}
					gotScores := make([]float64, n*k)
					gotPreds := make([]int, n)
					if err := engine.MergeScores(gotPreds, gotScores, parts); err != nil {
						t.Fatal(err)
					}
					for i := range wantPreds {
						if gotPreds[i] != wantPreds[i] {
							t.Fatalf("S=%d: pred %d = %d, want %d", S, i, gotPreds[i], wantPreds[i])
						}
					}
					for i := range wantScores {
						if gotScores[i] != wantScores[i] {
							t.Fatalf("S=%d: score %d = %v, want %v (bit-exact reduce broken)", S, i, gotScores[i], wantScores[i])
						}
					}
				}
			})
		}
	}
}

// TestMergeScoresValidation: the reduce rejects inconsistent or incomplete
// partial sets instead of silently producing wrong scores.
func TestMergeScoresValidation(t *testing.T) {
	p, test := buildPipeline(t, func(c *core.Config) { c.D = shardD })
	n := test.Images.Shape[0]
	e0, err := engine.CompileShard(p, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := engine.CompileShard(p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps0 := e0.NewPartials(0)
	ps1 := e1.NewPartials(0)
	if err := e0.PartialInto(test.Images, ps0); err != nil {
		t.Fatal(err)
	}
	if err := e1.PartialInto(test.Images, ps1); err != nil {
		t.Fatal(err)
	}
	k := e0.Classes()
	scores := make([]float64, n*k)

	if err := engine.MergeScores(nil, scores, nil); err == nil {
		t.Fatal("empty partial set should error")
	}
	if err := engine.MergeScores(nil, scores, []*engine.PartialScores{ps0}); err == nil {
		t.Fatal("incomplete tiling should error")
	}
	if err := engine.MergeScores(nil, scores, []*engine.PartialScores{ps0, ps0}); err == nil {
		t.Fatal("overlapping tiling should error")
	}
	if err := engine.MergeScores(nil, scores[:1], []*engine.PartialScores{ps0, ps1}); err == nil {
		t.Fatal("short scores should error")
	}
	if err := engine.MergeScores(make([]int, 1), scores, []*engine.PartialScores{ps0, ps1}); err == nil {
		t.Fatal("short preds should error")
	}
	badN := *ps1
	badN.N = ps1.N - 1
	if err := engine.MergeScores(nil, scores, []*engine.PartialScores{ps0, &badN}); err == nil {
		t.Fatal("mismatched N should error")
	}
	if err := engine.MergeScores(make([]int, n), scores, []*engine.PartialScores{ps0, ps1}); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}
}

// TestModelVersionTracksContent: shards agree on the version; retraining
// changes it; the projection backing does not.
func TestModelVersionTracksContent(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) { c.D = shardD })
	a, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Compile(p, engine.WithRemat())
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelVersion() != b.ModelVersion() {
		t.Fatal("the projection backing must not change the model version")
	}
	if a.ModelVersion() == 0 {
		t.Fatal("version should be a content hash, got 0")
	}
	p.HD.M.Data[0] += 1
	p.HD.Invalidate()
	c, err := engine.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.ModelVersion() == a.ModelVersion() {
		t.Fatal("retraining must change the model version")
	}
}

// TestCompileShardValidation: bad shard indices and oversized shard counts
// error cleanly.
func TestCompileShardValidation(t *testing.T) {
	p, _ := buildPipeline(t, func(c *core.Config) {})
	if _, err := engine.CompileShard(p, 0, 2); err == nil {
		t.Fatal("D=70 has one block; S=2 should error")
	}
	if _, err := engine.CompileShard(p, 2, 2); err == nil {
		t.Fatal("shard index out of range should error")
	}
	if _, err := engine.CompileShard(nil, 0, 1); err == nil {
		t.Fatal("nil pipeline should error")
	}
	e, err := engine.CompileShard(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := e.Shard(); lo != 0 || hi != 70 || e.FullDim() != 70 || e.Dim() != 70 {
		t.Fatalf("S=1 shard [%d,%d) fullD=%d d=%d", lo, hi, e.FullDim(), e.Dim())
	}
}

// TestArgmaxTieLowestIndex pins the one tie rule — on equal scores the
// lowest class index wins — for every scorer, unsharded and merged from
// S = 3 shards. The tie is exact by construction: the row of the class most
// samples choose is copied over class 0 and over the last class, so for
// those samples three classes score identically in every kernel (identical
// rows fold, pack and quantize identically) and class 0 must win; the last
// class must never be predicted at all.
func TestArgmaxTieLowestIndex(t *testing.T) {
	for _, sc := range []struct {
		name   string
		packed bool
		prec   engine.ScorerPrecision
	}{
		{"float", false, engine.PrecisionKeep},
		{"packed", true, engine.PrecisionKeep},
		{"int4", false, engine.PrecisionInt4},
		{"ternary", false, engine.PrecisionTernary},
	} {
		t.Run(sc.name, func(t *testing.T) {
			p, test := buildBigPipeline(t, func(c *core.Config) { c.PackedInference = sc.packed })
			n, k, d := test.Len(), p.HD.K, p.Cfg.D

			var opts []engine.Option
			if sc.prec != engine.PrecisionKeep {
				opts = append(opts, engine.WithCompression(engine.NewCompressPlan(d, allBlocks(d), sc.prec, 0)))
			}
			// Duplicate the class a that the same scorer chooses most often
			// over classes 0 and k−1; every other class row, hence every
			// other score, is untouched.
			before, err := engine.Compile(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := before.Predict(test.Images)
			if err != nil {
				t.Fatal(err)
			}
			votes := make([]int, k)
			for _, c := range orig {
				votes[c]++
			}
			a := 0
			for c := range votes {
				if votes[c] > votes[a] {
					a = c
				}
			}
			copy(p.HD.M.Row(0), p.HD.M.Row(a))
			copy(p.HD.M.Row(k-1), p.HD.M.Row(a))
			p.HD.Invalidate()
			e, err := engine.Compile(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			check := func(how string, preds []int) {
				t.Helper()
				for i, c := range preds {
					if c == k-1 {
						t.Fatalf("%s sample %d: predicted class %d, a duplicate of class 0", how, i, c)
					}
					if orig[i] == a && c != 0 {
						t.Fatalf("%s sample %d: classes 0, %d and %d tie; predicted %d, want 0", how, i, a, k-1, c)
					}
				}
			}
			preds, err := e.Predict(test.Images)
			if err != nil {
				t.Fatal(err)
			}
			check("unsharded", preds)

			// Three shards. A sub-byte engine is full-range by construction,
			// so its one partial is split into three whose integer dots sum
			// to the original — all MergeScores needs of a shard.
			bounds, err := engine.ShardBounds(d, 3)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*engine.PartialScores, 3)
			if sc.prec == engine.PrecisionKeep {
				for s := range parts {
					sh, err := engine.CompileShard(p, s, 3)
					if err != nil {
						t.Fatal(err)
					}
					parts[s] = sh.NewPartials(0)
					if err := sh.PartialInto(test.Images, parts[s]); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				full := e.NewPartials(0)
				if err := e.PartialInto(test.Images, full); err != nil {
					t.Fatal(err)
				}
				for s := range parts {
					ps := *full
					ps.Lo, ps.Hi = bounds[s][0], bounds[s][1]
					ps.Ints = make([]int32, len(full.Ints))
					for i, v := range full.Ints {
						if ps.Ints[i] = v / 3; s == 0 {
							ps.Ints[i] = v - 2*(v/3)
						}
					}
					parts[s] = &ps
				}
			}
			merged := make([]int, n)
			if err := engine.MergeScores(merged, make([]float64, n*k), parts); err != nil {
				t.Fatal(err)
			}
			check("merged S=3", merged)
			for i := range preds {
				if merged[i] != preds[i] {
					t.Fatalf("sample %d: merged pred %d, unsharded %d", i, merged[i], preds[i])
				}
			}
		})
	}
}
