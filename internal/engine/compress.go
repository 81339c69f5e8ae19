package engine

import (
	"fmt"
	"sort"

	"nshd/internal/core"
	"nshd/internal/hdlearn"
	"nshd/internal/tensor"
)

// Post-training compression (the perf analogue of DPQ-HD's pipeline): an
// already-compiled engine is squeezed below its float32 footprint in three
// orthogonal moves, each validated against a calibration set —
//
//  1. Dimension pruning. Class scores are sums of independent per-dimension
//     contributions, so dimensions whose contribution to the top-1/top-2
//     margin is small can be dropped wholesale. Pruning happens in units of
//     the 256-column GEMM panel block: the kept set stays a block grid, so
//     every surviving kernel (panel GEMM, sign packing, popcount scoring)
//     runs unchanged on the smaller D'.
//  2. Low-rank manifold fold. The manifold FC is factorized by truncated SVD
//     (manifold.Factorize) when the energy/cost gate says the pair is
//     smaller than the dense FC; the tail then folds the small up factor
//     into the projection and serves pool → V → one [rank, D'] GEMM.
//  3. Sub-byte scoring. The folded class matrix is re-quantized per row to
//     int4 or ternary (hdlearn.SubByteScorer) and scored with exact integer
//     kernels against the sign-packed queries the tail already produces.
//
// Compress searches the (keep-ratio × precision) grid for the smallest
// engine within target.MaxAccuracyDrop on a held-out calibration split; the
// whole pass is a deterministic pure function of (engine, calibration set),
// so compressed engines are bit-reproducible.

// ScorerPrecision selects the classifier precision of a compressed engine.
type ScorerPrecision int

const (
	// PrecisionAuto lets Compress search: ternary, then int4, then keep.
	PrecisionAuto ScorerPrecision = iota
	// PrecisionKeep keeps the source kernel (packed or float scorer).
	PrecisionKeep
	// PrecisionInt4 quantizes the folded class rows to int4 nibbles.
	PrecisionInt4
	// PrecisionTernary quantizes the folded class rows to {−1, 0, +1}.
	PrecisionTernary
)

// String names the precision for reports and tooling.
func (p ScorerPrecision) String() string {
	switch p {
	case PrecisionKeep:
		return "keep"
	case PrecisionInt4:
		return "int4"
	case PrecisionTernary:
		return "ternary"
	}
	return "auto"
}

// CompressTarget configures Engine.Compress.
type CompressTarget struct {
	// Calib is the calibration batch ([N, C, H, W], N ≥ 2, in-distribution).
	// The first half drives dimension saliency; the second half is the
	// holdout that gates the accuracy search.
	Calib *tensor.Tensor
	// Labels, when non-nil (length N), scores the holdout by true accuracy.
	// When nil the holdout is scored by agreement with the source engine.
	Labels []int
	// MaxAccuracyDrop is the largest holdout accuracy loss (percentage
	// points) a searched configuration may cost. 0 means the default 1.0.
	MaxAccuracyDrop float64
	// KeepRatio, when > 0, fixes the kept fraction of dimension blocks
	// instead of searching it (the benchmark's tradeoff-curve hook).
	KeepRatio float64
	// Precision, when not PrecisionAuto, fixes the scorer precision instead
	// of searching it. With both KeepRatio and Precision fixed the chosen
	// configuration is built unconditionally and its measured drop reported.
	Precision ScorerPrecision
	// NoLowRank disables the truncated-SVD manifold factorization.
	NoLowRank bool
}

// CompressReport describes what Compress chose and what it measured.
type CompressReport struct {
	// OrigD and D are the hypervector dimensions before and after pruning.
	OrigD, D int
	// KeepBlocks lists the surviving 256-column block indices (ascending).
	KeepBlocks []int
	// KeepRatio is len(KeepBlocks) over the source block count.
	KeepRatio float64
	// Precision is the chosen scorer precision ("keep", "int4", "ternary").
	Precision string
	// Rank is the manifold factorization rank (0 = dense FC kept).
	Rank int
	// BytesBefore/After are engine ModelBytes; Stages itemize them.
	BytesBefore, BytesAfter   int64
	StagesBefore, StagesAfter []StageBytes
	// CalibBefore/After are holdout accuracy (or source agreement) percent;
	// CalibDrop = CalibBefore − CalibAfter.
	CalibBefore, CalibAfter, CalibDrop float64
	// Holdout is the holdout sample count; Candidates counts the engine
	// configurations compiled and evaluated by the search.
	Holdout, Candidates int
}

// CompressPlan is the compiled form of one compression decision: which
// 256-column dimension blocks survive, the scorer precision, and the manifold
// factorization rank. Plans are produced by Engine.Compress (or built
// directly with NewCompressPlan) and applied at compile time through
// WithCompression.
type CompressPlan struct {
	origD int
	keep  []int // ascending kept block indices on the 256-column grid
	prec  ScorerPrecision
	rank  int
}

// NewCompressPlan builds a plan for a model of dimension origD keeping the
// given 256-column block indices (ascending), scoring at prec, with manifold
// factorization rank rank (0 = keep the dense FC). Validation happens at
// compile time.
func NewCompressPlan(origD int, keepBlocks []int, prec ScorerPrecision, rank int) *CompressPlan {
	return &CompressPlan{
		origD: origD,
		keep:  append([]int(nil), keepBlocks...),
		prec:  prec,
		rank:  rank,
	}
}

// KeepBlocks returns the plan's kept block indices (a copy).
func (pl *CompressPlan) KeepBlocks() []int { return append([]int(nil), pl.keep...) }

// Precision returns the plan's scorer precision.
func (pl *CompressPlan) Precision() ScorerPrecision { return pl.prec }

// Rank returns the plan's manifold factorization rank (0 = dense).
func (pl *CompressPlan) Rank() int { return pl.rank }

// blockCount is the source model's 256-column block count.
func (pl *CompressPlan) blockCount() int {
	bc := tensor.PanelBlockCols()
	return (pl.origD + bc - 1) / bc
}

// isIdentity reports whether the plan changes nothing: all blocks kept, the
// source kernel, the dense FC. Compile drops identity plans so the resulting
// engine is the source engine, bit for bit.
func (pl *CompressPlan) isIdentity() bool {
	return pl.prec == PrecisionKeep && pl.rank == 0 && len(pl.keep) == pl.blockCount()
}

// mixVersion folds the plan into the engine's model-version hash: two engines
// compiled from one trained model under different plans must never advertise
// the same version to the serving tier.
func (pl *CompressPlan) mixVersion(h uint64) uint64 {
	h = fnvMix(h, 3) // domain tag: compressed
	h = fnvMix(h, uint64(pl.origD))
	h = fnvMix(h, uint64(pl.prec))
	h = fnvMix(h, uint64(pl.rank))
	h = fnvMix(h, uint64(len(pl.keep)))
	for _, b := range pl.keep {
		h = fnvMix(h, uint64(b))
	}
	return h
}

// apply derives the compressed pipeline: the projection and class matrix keep
// only the plan's column blocks (hdc.Projection.GatherBlocks keeps seeded
// projections seed-defined), and the manifold is factorized at the plan's
// rank. The source pipeline is untouched; derived objects share unmodified
// weights (extractor, pool) read-only.
func (pl *CompressPlan) apply(p *core.Pipeline) (*core.Pipeline, error) {
	bc := tensor.PanelBlockCols()
	if pl.origD != p.Cfg.D {
		return nil, fmt.Errorf("engine: compression plan for D=%d applied to D=%d", pl.origD, p.Cfg.D)
	}
	nb := pl.blockCount()
	if len(pl.keep) == 0 {
		return nil, fmt.Errorf("engine: compression plan keeps no dimension blocks")
	}
	for i, b := range pl.keep {
		if b < 0 || b >= nb {
			return nil, fmt.Errorf("engine: compression plan block %d out of [0, %d)", b, nb)
		}
		if i > 0 && b <= pl.keep[i-1] {
			return nil, fmt.Errorf("engine: compression plan blocks not ascending at %d", b)
		}
	}
	switch pl.prec {
	case PrecisionKeep, PrecisionInt4, PrecisionTernary:
	default:
		return nil, fmt.Errorf("engine: compression plan precision %v not resolved (run Compress, or pick one)", pl.prec)
	}

	proj, hd, d := p.Proj, p.HD, p.Cfg.D
	if len(pl.keep) != nb {
		proj = p.Proj.GatherBlocks(pl.keep, bc)
		m := tensor.GatherColBlocks(p.HD.M, pl.keep, bc)
		hd = &hdlearn.Model{K: p.HD.K, D: m.Shape[1], M: m}
		d = m.Shape[1]
	}
	man := p.Manifold
	if pl.rank > 0 {
		if man == nil {
			return nil, fmt.Errorf("engine: compression plan rank %d on a manifold-free pipeline", pl.rank)
		}
		var err error
		man, err = man.Factorize(pl.rank)
		if err != nil {
			return nil, fmt.Errorf("engine: compression plan: %w", err)
		}
	}
	cfg := p.Cfg
	cfg.D = d
	return &core.Pipeline{
		Cfg:       cfg,
		Zoo:       p.Zoo,
		Extractor: p.Extractor,
		FeatShape: p.FeatShape,
		Manifold:  man,
		LSH:       p.LSH,
		Proj:      proj,
		HD:        hd,
	}, nil
}

// Plan returns the compression plan this engine was compiled under, nil for
// an uncompressed engine (including identity plans, which compile to the
// source engine).
func (e *Engine) Plan() *CompressPlan { return e.opts.plan }

// compressCandidate is one evaluated point of the search grid.
type compressCandidate struct {
	eng    *Engine
	plan   *CompressPlan
	blocks int
	metric float64 // holdout accuracy (or source agreement), percent
	drop   float64
	bytes  int64
}

// Compress squeezes a compiled engine per target, returning the
// compressed engine and a report of what was chosen and measured. The source
// engine is untouched and stays servable. The pass is deterministic: the same
// engine and calibration set always produce the same compressed engine
// (identical ModelVersion and predictions).
func (e *Engine) Compress(target CompressTarget) (*Engine, CompressReport, error) {
	var rep CompressReport
	if e.src == nil {
		return nil, rep, fmt.Errorf("engine: Compress on an engine with no source pipeline")
	}
	if e.opts.plan != nil {
		return nil, rep, fmt.Errorf("engine: Compress on an already-compressed engine")
	}
	if target.Calib == nil || target.Calib.Rank() != 4 || target.Calib.Shape[0] < 2 {
		return nil, rep, fmt.Errorf("engine: Compress needs a calibration batch of at least 2 images")
	}
	if err := e.checkImages(target.Calib); err != nil {
		return nil, rep, err
	}
	n := target.Calib.Shape[0]
	if target.Labels != nil && len(target.Labels) != n {
		return nil, rep, fmt.Errorf("engine: Compress labels length %d, want %d", len(target.Labels), n)
	}
	maxDrop := target.MaxAccuracyDrop
	if maxDrop <= 0 {
		maxDrop = 1.0
	}
	k := e.src.HD.K
	if k < 2 {
		return nil, rep, fmt.Errorf("engine: Compress needs at least 2 classes, have %d", k)
	}

	// Split: first half drives saliency, second half is the search holdout.
	nSal := n / 2
	sal := viewImages(target.Calib, 0, nSal)
	hold := viewImages(target.Calib, nSal, n)
	nHold := n - nSal

	srcPreds, err := e.Predict(hold)
	if err != nil {
		return nil, rep, err
	}
	var holdLabels []int
	if target.Labels != nil {
		holdLabels = target.Labels[nSal:]
	}
	srcMetric := 100.0
	if holdLabels != nil {
		srcMetric = matchPct(srcPreds, holdLabels)
	}

	order, err := e.saliencyOrder(sal)
	if err != nil {
		return nil, rep, err
	}
	bc := tensor.PanelBlockCols()
	nb := (e.d + bc - 1) / bc

	rank := 0
	if !target.NoLowRank && e.src.Manifold != nil && e.src.Manifold.Down() == nil {
		rank = e.src.Manifold.AutoRank()
	}

	type evalKey struct {
		blocks int
		prec   ScorerPrecision
		rank   int
	}
	cache := map[evalKey]*compressCandidate{}
	eval := func(blocks int, prec ScorerPrecision, rank int) (*compressCandidate, error) {
		key := evalKey{blocks, prec, rank}
		if c, ok := cache[key]; ok {
			return c, nil
		}
		keep := append([]int(nil), order[:blocks]...)
		sort.Ints(keep)
		plan := &CompressPlan{origD: e.d, keep: keep, prec: prec, rank: rank}
		o := e.opts
		o.plan = plan
		eng, err := compileResolved(e.src, o)
		if err != nil {
			return nil, err
		}
		preds, err := eng.Predict(hold)
		if err != nil {
			return nil, err
		}
		metric := matchPct(preds, srcPreds)
		if holdLabels != nil {
			metric = matchPct(preds, holdLabels)
		}
		c := &compressCandidate{
			eng:    eng,
			plan:   plan,
			blocks: blocks,
			metric: metric,
			drop:   srcMetric - metric,
			bytes:  eng.ModelBytes(),
		}
		cache[key] = c
		rep.Candidates++
		return c, nil
	}
	feasible := func(c *compressCandidate) bool { return c.drop <= maxDrop+1e-9 }

	precs := []ScorerPrecision{PrecisionTernary, PrecisionInt4, PrecisionKeep}
	if target.Precision != PrecisionAuto {
		precs = []ScorerPrecision{target.Precision}
	}
	fixedBlocks := 0
	if target.KeepRatio > 0 {
		if target.KeepRatio > 1 {
			return nil, rep, fmt.Errorf("engine: Compress KeepRatio %v > 1", target.KeepRatio)
		}
		fixedBlocks = int(target.KeepRatio*float64(nb) + 0.5)
		if fixedBlocks < 1 {
			fixedBlocks = 1
		}
		if fixedBlocks > nb {
			fixedBlocks = nb
		}
	}
	pinned := fixedBlocks > 0 && target.Precision != PrecisionAuto

	var best *compressCandidate
	// Pass 1 uses the factorized manifold; if nothing feasible survives the
	// rank truncation, pass 2 retries with the dense FC.
	for _, r := range rankPasses(rank) {
		for _, prec := range precs {
			var c *compressCandidate
			switch {
			case pinned:
				c, err = eval(fixedBlocks, prec, r)
			case fixedBlocks > 0:
				c, err = eval(fixedBlocks, prec, r)
				if err == nil && !feasible(c) {
					c = nil
				}
			default:
				c, err = searchBlocks(eval, feasible, nb, prec, r)
			}
			if err != nil {
				return nil, rep, err
			}
			if c != nil && (best == nil || c.bytes < best.bytes) {
				best = c
			}
		}
		if best != nil {
			break
		}
	}
	if best == nil {
		return nil, rep, fmt.Errorf("engine: Compress found no configuration within %.2f points on the holdout", maxDrop)
	}

	rep.OrigD = e.d
	rep.D = best.eng.d
	rep.KeepBlocks = append([]int(nil), best.plan.keep...)
	rep.KeepRatio = float64(best.blocks) / float64(nb)
	rep.Precision = best.plan.prec.String()
	rep.Rank = best.plan.rank
	rep.BytesBefore = e.ModelBytes()
	rep.BytesAfter = best.bytes
	rep.StagesBefore = e.BytesBreakdown()
	rep.StagesAfter = best.eng.BytesBreakdown()
	rep.CalibBefore = srcMetric
	rep.CalibAfter = best.metric
	rep.CalibDrop = best.drop
	rep.Holdout = nHold
	return best.eng, rep, nil
}

// rankPasses orders the factorization attempts: the truncated rank first,
// then the dense fallback (just the one pass when rank is already 0).
func rankPasses(rank int) []int {
	if rank > 0 {
		return []int{rank, 0}
	}
	return []int{0}
}

// searchBlocks finds the smallest feasible kept-block count for one precision
// by binary search (accuracy is monotone in kept saliency mass to first
// order). Returns nil without error when even the full-width engine at this
// precision misses the accuracy budget.
func searchBlocks(
	eval func(blocks int, prec ScorerPrecision, rank int) (*compressCandidate, error),
	feasible func(*compressCandidate) bool,
	nb int, prec ScorerPrecision, rank int,
) (*compressCandidate, error) {
	full, err := eval(nb, prec, rank)
	if err != nil {
		return nil, err
	}
	if !feasible(full) {
		return nil, nil
	}
	lo, hi := 1, nb
	for lo < hi {
		mid := (lo + hi) / 2
		c, err := eval(mid, prec, rank)
		if err != nil {
			return nil, err
		}
		if feasible(c) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return eval(lo, prec, rank)
}

// saliencyOrder ranks the 256-column dimension blocks by their summed
// top-1/top-2 margin contribution on the saliency split, most salient first
// (ties broken by ascending block index, keeping the pass deterministic).
// Per sample, dimension d contributes h_d·(M̂_a,d − M̂_b,d) where a, b are the
// two highest-scoring classes — how much d pushes the winning margin.
func (e *Engine) saliencyOrder(images *tensor.Tensor) ([]int, error) {
	hvs, err := e.QueryHVs(images)
	if err != nil {
		return nil, err
	}
	folded := hdlearn.FoldedRows(e.src.HD)
	d, k := e.d, folded.Shape[0]
	sal := make([]float64, d)
	scores := make([]float64, k)
	for i := 0; i < hvs.Shape[0]; i++ {
		h := hvs.Row(i)
		for c := 0; c < k; c++ {
			var s float64
			row := folded.Row(c)
			for j := range h {
				s += float64(h[j]) * float64(row[j])
			}
			scores[c] = s
		}
		a, b := 0, 1
		if scores[b] > scores[a] {
			a, b = b, a
		}
		for c := 2; c < k; c++ {
			switch {
			case scores[c] > scores[a]:
				a, b = c, a
			case scores[c] > scores[b]:
				b = c
			}
		}
		ra, rb := folded.Row(a), folded.Row(b)
		for j := range h {
			sal[j] += float64(h[j]) * (float64(ra[j]) - float64(rb[j]))
		}
	}

	bc := tensor.PanelBlockCols()
	nb := (d + bc - 1) / bc
	blockSal := make([]float64, nb)
	for j, v := range sal {
		blockSal[j/bc] += v
	}
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		if blockSal[order[x]] != blockSal[order[y]] {
			return blockSal[order[x]] > blockSal[order[y]]
		}
		return order[x] < order[y]
	})
	return order, nil
}

// viewImages returns rows [lo, hi) of an image batch as a view (no copy).
func viewImages(images *tensor.Tensor, lo, hi int) *tensor.Tensor {
	per := images.Len() / images.Shape[0]
	return tensor.FromSlice(images.Data[lo*per:hi*per], hi-lo, images.Shape[1], images.Shape[2], images.Shape[3])
}

// matchPct is the percentage of positions where a and b agree.
func matchPct(a, b []int) float64 {
	if len(a) == 0 {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return 100 * float64(match) / float64(len(a))
}
