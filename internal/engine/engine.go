// Package engine is the serving side of NSHD: a frozen inference Engine
// compiled from a trained core.Pipeline.
//
// The training object (core.Pipeline) re-allocates every intermediate tensor
// per batch, materializes the full feature tensor for all N samples before
// symbolizing, and its layers cache state, so it can never be shared across
// goroutines. The Engine is the opposite trade: Compile snapshots the
// classifier, sizes per-worker scratch arenas by measuring one warmup batch,
// and from then on the steady-state forward pass — extractor → manifold/LSH →
// projection → classifier — performs zero heap allocations and is safe for
// concurrent use. Batches stream through in parts of at most one chunk, cut
// evenly over the worker pool (see Engine.split), so feature extraction and
// symbolization pipeline across the workers instead of ever holding the all-N
// feature tensor.
//
// This mirrors the deployment argument of the paper's Sec. VI (and DPQ-HD):
// HD's efficiency win comes from a dedicated inference path distinct from the
// training loop.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"nshd/internal/core"
	"nshd/internal/hdc"
	"nshd/internal/manifold"
	"nshd/internal/nn"
	"nshd/internal/parallel"
	"nshd/internal/tensor"
)

// arenaBudgetBytes caps one worker arena's slab memory. When a warmup batch
// measures larger, the chunk size shrinks proportionally — trading a little
// GEMM efficiency for bounded residency.
const arenaBudgetBytes = 256 << 20

// splitMinMACs is the work floor of the batch split: a batch is cut over the
// workers only as far as every part keeps this many extractor MACs. A pool
// helper starts 70–160 µs after the fan-out on the bench box, sometimes not
// before the caller has run every part itself, so a part must be worth a few
// hundred µs: measured split against unsplit on the 512-bit kernels, parts of
// 0.35 M MACs lose ×1.4, of 1.6 M ×1.3 (×1.1 on the 256-bit kernels, where a
// part lasts half as long again), of 3.2 M win ×0.90 and of 6.3 M ×0.75 — the
// faster kernels moved the break-even up inside (1.6 M, 3.2 M) and no row
// across the floor (DESIGN.md, "Serving engine"). The tail is not counted,
// which errs towards not splitting. Var only so tests reach both sides of it
// on small fixtures.
var splitMinMACs int64 = 2 << 20

// Stage is one step of the compiled symbolization chain. Run consumes an
// arena-owned activation (it may overwrite it in place) and returns the next
// activation, allocated from the same arena. Implementations are state-free.
// The engine's own parallelism is across the parts of a batch; a stage may
// fan out inside its part (the fused extraction blocks do, over sample×tile
// items) only with a parallel.Call, never with parallel.For — see
// Engine.arenas.
type Stage interface {
	Name() string
	Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
}

// Engine is a frozen, immutable serving plan. Safe for concurrent use: the
// classifier holds a snapshot of the class hypervectors, stage weights are
// shared read-only with the pipeline, and all mutable scratch lives in
// per-worker arenas handed out through a freelist.
//
// The Engine reflects the pipeline at Compile time. Training afterwards
// changes weights the stages share (manifold) and leaves the classifier
// snapshot behind — recompile after training. core.Pipeline does this
// automatically, keyed on the HD model's version counter.
type Engine struct {
	inShape   [3]int  // per-sample image shape [C, H, W]
	sampleLen int     // C·H·W
	d         int     // hypervector dimension D
	version   uint64  // model content hash (see ModelVersion)
	chunk     int     // max samples per worker chunk
	minSplit  int     // samples that make splitMinMACs: the smallest part of a split
	stages    []Stage // feature stages; the tail finishes the chain
	tail      *tail
	bytes     []StageBytes // resident serving weights, per Stages() entry

	// Worker arenas: proto is the frozen warmup arena and the first on the
	// list; clones are made lazily, one per worker, then recycled, so steady
	// state never touches the heap. Taking one may wait for another part to
	// return its arena, so nothing that runs while an arena is held may
	// depend on a queued pool task making progress. The one fan-out that runs
	// there is a fused block's over its tiles: a parallel.Call, whose waiter
	// claims only its own tasks and whose tasks take no arena. The batch
	// split (forParts) is not among them: each part takes its arena inside
	// its task, and the caller holds none while it waits.
	proto  *tensor.Arena
	arenas *parallel.Freelist[*tensor.Arena]
	fans   *parallel.Freelist[*fanout]

	// src is the SOURCE pipeline the engine was compiled from (before any
	// compression plan was applied) and opts the resolved compile options —
	// what Engine.Compress needs to derive and compile candidate plans.
	src  *core.Pipeline
	opts compileOptions
}

type extractStage struct{ ex *nn.Sequential }

func (s extractStage) Name() string { return "extract" }
func (s extractStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return s.ex.ForwardInfer(x, ar)
}

type manifoldStage struct{ ml *manifold.Learner }

func (s manifoldStage) Name() string { return "manifold" }
func (s manifoldStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return s.ml.ForwardInfer(x, ar)
}

// flattenStage reshapes [N, C, H, W] features to [N, F] for the LSH and
// direct-projection paths (a view, no copy).
type flattenStage struct{}

func (flattenStage) Name() string { return "flatten" }
func (flattenStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := x.Shape[0]
	return ar.Wrap(x.Data, n, x.Len()/n)
}

// lshStage runs BaselineHD's LSH reduction (a binary random projection),
// keeping only the signed output. The operand is frozen at Compile, so it is
// prepacked once into GEMM panel form: per-call products skip the panel
// packing pass entirely (at batch 1 that pass dominates the projection GEMM)
// and need no panel scratch.
type lshStage struct {
	pr     *hdc.Projection
	panels *tensor.ProjPanels
}

func newLSHStage(pr *hdc.Projection) lshStage { return lshStage{pr, pr.PrepackedPanels()} }

func (s lshStage) Name() string { return "lsh" }
func (s lshStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	out := ar.Alloc(x.Shape[0], s.pr.D)
	s.pr.EncodeBatchPanelsInto(x, out, out, s.panels)
	return out
}

// Compile freezes a trained pipeline into an Engine. It validates that every
// extractor layer has an inference path, snapshots the classifier (packed or
// float, per cfg.PackedInference), then runs one warmup chunk of zeros
// through the stage chain on a measuring arena to size the per-worker slabs.
// Predictions agree with the pipeline's direct path per-sample, bit-for-bit:
// every stage reuses the training kernels' exact accumulation order.
//
// WithRemat keeps only the projection's seed resident; with no options the
// projection is served from prepacked panels (see tail.go).
func Compile(p *core.Pipeline, opts ...Option) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("engine: nil pipeline")
	}
	var o compileOptions
	for _, opt := range opts {
		opt.applyOption(&o)
	}
	e, err := compileResolved(p, o)
	if err == nil {
		// Compile is the last thing the engine allocates, and it leaves the
		// measuring arena's buffers behind as garbage. Collect now, while the
		// model is live, so that the heap goal is set from the model: left to
		// chance, a process that builds models one after another (a reload,
		// the benchmark's repeated fixture builds) can have its next cycle
		// fall where the previous model is already dead, the goal collapses
		// to what little is live, the scavenger returns tens of MB to the OS
		// and the next build re-faults them (measured: CHANGES.md, PR 27).
		runtime.GC()
	}
	return e, err
}

// compileResolved is Compile after option resolution — the entry point
// Engine.Compress uses to build candidate engines from an options struct it
// assembled itself. When a compression plan is present the pipeline compiled
// is a DERIVED one (pruned projection/class columns, factorized manifold);
// the engine records the source pipeline and the plan so the compressed
// engine can report both and refuse re-compression.
func compileResolved(p *core.Pipeline, o compileOptions) (*Engine, error) {
	src := p
	if o.plan != nil && o.plan.isIdentity() {
		o.plan = nil
	}
	if o.plan != nil {
		derived, err := o.plan.apply(p)
		if err != nil {
			return nil, err
		}
		p = derived
	}
	if err := nn.InferSupported(p.Extractor); err != nil {
		return nil, fmt.Errorf("engine: extractor not servable: %w", err)
	}
	in := p.Zoo.InShape
	if len(in) != 3 {
		return nil, fmt.Errorf("engine: zoo input shape %v, want [C H W]", in)
	}

	// Plan the manifold fold before laying out stages: a folded tail absorbs
	// the manifold, so it must not also compile as a stage. The fold needs
	// a dense projection operand (the folded matrix G is not seed-defined).
	// A factorized manifold always folds: the up factor is [F̂, rank], so
	// G = up^T·P is only [rank, D] and rank·D < rank·F̂ + F̂·D for every
	// rank ≤ F̂ — the fold that loses on the dense FC wins there.
	fold := !o.remat && p.Manifold != nil &&
		(p.Manifold.Down() != nil || foldProfitable(p.Manifold.PooledF, p.Manifold.FHat, p.Cfg.D))

	if p.Cfg.D < 1 {
		return nil, fmt.Errorf("engine: hypervector dimension D=%d", p.Cfg.D)
	}
	e := &Engine{
		inShape:   [3]int{in[0], in[1], in[2]},
		sampleLen: in[0] * in[1] * in[2],
		d:         p.Cfg.D,
		version:   modelVersionHash(p),
		src:       src,
		opts:      o,
	}
	if o.plan != nil {
		e.version = o.plan.mixVersion(e.version)
	}
	macs := max(1, p.Extractor.Stats(in).MACs)
	e.minSplit = int(max(1, (splitMinMACs+macs-1)/macs))
	ex := p.Extractor
	if !o.unfused {
		// Rewrite fusible conv→BN→ReLU→pool runs into tiled fused blocks
		// (bit-identical; see nn.FuseInference). Layers are shared, so
		// weight accounting and later training are unaffected.
		ex = nn.FuseInference(ex, in[0], in[1], in[2])
	}
	e.stages = append(e.stages, extractStage{ex})
	switch {
	case p.Manifold != nil && fold:
		// The folded tail runs pool+flatten itself and multiplies by
		// G = Wᵀ·P directly; no manifold stage.
	case p.Manifold != nil:
		e.stages = append(e.stages, manifoldStage{p.Manifold})
	case p.LSH != nil:
		e.stages = append(e.stages, flattenStage{}, newLSHStage(p.LSH))
	default:
		e.stages = append(e.stages, flattenStage{})
	}
	t, err := buildTail(p, &o, fold)
	if err != nil {
		return nil, err
	}
	e.tail = t
	for _, st := range e.stages {
		e.bytes = append(e.bytes, StageBytes{st.Name(), stageWeightBytes(st)})
	}
	e.bytes = append(e.bytes, t.bytes...)

	// Size the chunk: start from the training batch size, shrink until the
	// measured arena fits the budget.
	chunk := p.Cfg.BatchSize
	if chunk < 1 {
		chunk = 1
	}
	for {
		ar := tensor.NewArena()
		if err := e.warmup(ar, chunk); err != nil {
			return nil, err
		}
		ar.Freeze()
		foot := ar.FootprintBytes()
		if foot <= arenaBudgetBytes || chunk == 1 {
			e.proto = ar
			e.chunk = chunk
			break
		}
		next := int(int64(chunk) * arenaBudgetBytes / foot)
		if next < 1 {
			next = 1
		}
		if next >= chunk {
			next = chunk - 1
		}
		chunk = next
	}

	e.arenas = parallel.NewFreelist(parallel.Workers(), e.proto.CloneEmpty, e.proto)
	e.fans = parallel.NewFreelist(parallel.Workers(), e.newFanout)
	return e, nil
}

// warmup drives one all-zero chunk through the full chain so the measuring
// arena records its high-water marks.
func (e *Engine) warmup(ar *tensor.Arena, chunk int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: warmup failed: %v", r)
		}
	}()
	zero := make([]float32, chunk*e.sampleLen)
	preds := make([]int, chunk)
	hvs := make([]float32, chunk*e.d)
	x := e.runChunk(ar, zero, chunk)
	e.tail.run(x, preds, ar, nil)
	// Size the hypervector path too (QueryHVs). Each tail releases what it
	// took and leaves x alone, so one pass through the stages serves both and
	// the high-water marks are the larger of the two.
	e.tail.runHVs(x, hvs, ar)
	return nil
}

// batchJob is one PredictInto or QueryHVs call: the batch and the one output
// its tail fills. A struct, not a closure, so that handing it to the fan-out
// allocates nothing.
type batchJob struct {
	images []float32
	n      int
	preds  []int     // PredictInto
	hvs    []float32 // QueryHVs, [n, d]
}

// fanout is a reusable prebound parallel.Call over the parts of one job.
type fanout struct {
	batchJob
	parts int
	call  *parallel.Call
}

func (e *Engine) newFanout() *fanout {
	f := &fanout{}
	f.call = parallel.NewCall(0, func(i, _ int) {
		e.runPart(&f.batchJob, i*f.n/f.parts, (i+1)*f.n/f.parts)
	})
	return f
}

// split is how many parts an n-sample batch is cut into (part i is samples
// [i·n/parts, (i+1)·n/parts), so sizes are equal to within one): as few as
// keep every part within a chunk, rounded up to a multiple of the worker
// count — every worker gets the same share, and a batch of 2 ≤ n ≤ chunk
// uses all of them — as far as the work floor lets parts shrink.
func (e *Engine) split(n int) int {
	parts := (n + e.chunk - 1) / e.chunk
	w := parallel.Workers()
	return max(parts, min((parts+w-1)/w*w, n/e.minSplit))
}

// forParts runs a job part by part: on the calling goroutine when it is one
// part, otherwise through a prebound Call from the freelist, so both ways are
// allocation-free. The caller holds no arena while it waits.
func (e *Engine) forParts(job batchJob) {
	parts := e.split(job.n)
	if parts <= 1 {
		if job.n > 0 {
			e.runPart(&job, 0, job.n)
		}
		return
	}
	f := e.fans.Get()
	f.batchJob, f.parts = job, parts
	f.call.RunN(parts)
	f.batchJob = batchJob{}
	e.fans.Put(f)
}

// runPart takes a worker arena, runs samples [start, end) of the job through
// the feature stages and the tail, and returns the arena.
func (e *Engine) runPart(j *batchJob, start, end int) {
	seg := j.images[start*e.sampleLen : end*e.sampleLen] // before the arena: a short Data panics here
	ar := e.arenas.Get()
	x := e.runChunk(ar, seg, end-start)
	if j.preds != nil {
		e.tail.run(x, j.preds[start:end], ar, nil)
	} else {
		e.tail.runHVs(x, j.hvs[start*e.d:end*e.d], ar)
	}
	e.arenas.Put(ar)
}

// runChunk copies one part's images into the arena (inference layers write
// activations in place, so user memory is never touched) and runs the
// feature stages, returning the activation the tail consumes.
func (e *Engine) runChunk(ar *tensor.Arena, seg []float32, n int) *tensor.Tensor {
	ar.Reset()
	x := ar.Alloc(n, e.inShape[0], e.inShape[1], e.inShape[2])
	copy(x.Data, seg)
	for _, st := range e.stages {
		x = st.Run(x, ar)
	}
	return x
}

func (e *Engine) checkImages(images *tensor.Tensor) error {
	if images == nil || images.Rank() != 4 {
		return fmt.Errorf("engine: Predict expects [N C H W] images")
	}
	if images.Shape[1] != e.inShape[0] || images.Shape[2] != e.inShape[1] || images.Shape[3] != e.inShape[2] {
		return fmt.Errorf("engine: image shape %v, engine compiled for [N %d %d %d]",
			images.Shape, e.inShape[0], e.inShape[1], e.inShape[2])
	}
	return nil
}

// Predict classifies a batch of images. N = 0 returns an empty slice.
func (e *Engine) Predict(images *tensor.Tensor) ([]int, error) {
	if err := e.checkImages(images); err != nil {
		return nil, err
	}
	preds := make([]int, images.Shape[0])
	if err := e.PredictInto(images, preds); err != nil {
		return nil, err
	}
	return preds, nil
}

// PredictInto classifies a batch of images into caller-owned preds (length
// N). One image, or a batch too small to be worth a second core (see
// splitMinMACs), runs entirely on the calling goroutine; any other batch is
// cut evenly over the worker pool in parts of at most a chunk (see split).
// Either way the call performs zero heap allocations in steady state (see
// TestEngineZeroAlloc), and every sample's result is the one it gets alone.
func (e *Engine) PredictInto(images *tensor.Tensor, preds []int) error {
	if err := e.checkImages(images); err != nil {
		return err
	}
	n := images.Shape[0]
	if len(preds) != n {
		return fmt.Errorf("engine: preds length %d, want %d", len(preds), n)
	}
	e.forParts(batchJob{images: images.Data, n: n, preds: preds})
	return nil
}

// QueryHVs returns the signed query hypervectors ([N, D]) of a batch — the
// symbolic representation the explainability analysis consumes — streaming
// each part's results into the output instead of materializing all-N
// features.
func (e *Engine) QueryHVs(images *tensor.Tensor) (*tensor.Tensor, error) {
	if err := e.checkImages(images); err != nil {
		return nil, err
	}
	n := images.Shape[0]
	out := tensor.New(n, e.d)
	e.forParts(batchJob{images: images.Data, n: n, hvs: out.Data})
	return out, nil
}

// StreamResult is one batch's outcome on the stream path.
type StreamResult struct {
	// Index is the batch's position in the input stream.
	Index int
	Preds []int
	Err   error
}

// PredictStream serves an unbounded sequence of batches. Results are emitted
// strictly in input order; up to a few batches are in flight at once, so
// feature extraction of batch i+1 overlaps classification of batch i. The
// output channel closes after the input channel closes and all in-flight
// batches drain. A failed batch (bad shape) reports its error in the result
// and the stream continues.
func (e *Engine) PredictStream(in <-chan *tensor.Tensor) <-chan StreamResult {
	workers := parallel.Workers()
	if workers > 4 {
		workers = 4
	}
	if workers < 1 {
		workers = 1
	}
	type item struct {
		idx int
		img *tensor.Tensor
	}
	tagged := make(chan item)
	go func() {
		i := 0
		for b := range in {
			tagged <- item{i, b}
			i++
		}
		close(tagged)
	}()

	results := make(chan StreamResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range tagged {
				preds, err := e.Predict(it.img)
				results <- StreamResult{Index: it.idx, Preds: preds, Err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	out := make(chan StreamResult, workers)
	go func() {
		pending := make(map[int]StreamResult)
		next := 0
		for r := range results {
			pending[r.Index] = r
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- v
				next++
			}
		}
		close(out)
	}()
	return out
}

// ErrInternal marks an error PredictChecked made out of a recovered panic: a
// fault in the engine or its caller's tensor, never something a well-formed
// request did wrong.
var ErrInternal = errors.New("engine: internal error")

// PredictChecked is the serving form of PredictInto: the same validation,
// plus a recover barrier that converts any panic escaping the stage chain
// (a malformed tensor whose Data is shorter than its shape claims, an arena
// sizing bug) into an error wrapping ErrInternal. A serving front end must
// never crash the process on one bad request; training-side callers keep the
// panicking fast paths.
func (e *Engine) PredictChecked(images *tensor.Tensor, preds []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: predict panicked: %v", ErrInternal, r)
		}
	}()
	return e.PredictInto(images, preds)
}

// ChunkSize reports the most samples one worker arena carries: the cap on a
// part of a batch.
func (e *Engine) ChunkSize() int { return e.chunk }

// SplitRule reports the batch split for the operator: the work floor in
// extractor MACs per part and the smallest batch it lets use every worker.
func (e *Engine) SplitRule() (floorMACs int64, minBatch int) {
	return splitMinMACs, e.minSplit * parallel.Workers()
}

// InShape reports the per-sample input shape [C, H, W] the engine was
// compiled for.
func (e *Engine) InShape() [3]int { return e.inShape }

// SampleLen reports the flat float32 length of one input sample (C·H·W).
func (e *Engine) SampleLen() int { return e.sampleLen }

// Dim reports the hypervector dimension D of the compiled symbolization.
func (e *Engine) Dim() int { return e.d }

// Classes reports the number of classes the compiled classifier scores.
func (e *Engine) Classes() int { return e.tail.k }

// ModelVersion is a content hash identifying the compiled model: the HD
// class matrix, the projection (its seed, or its dense matrix when
// unseeded), and the shape facts (D, K). Engines compiled from one trained
// model report the same version regardless of projection backing; retraining
// changes it. A COMPRESSED engine mixes its plan into the hash (see
// CompressPlan.mixVersion) — it serves different predictions, so it must
// never be mistaken for the source model.
func (e *Engine) ModelVersion() uint64 { return e.version }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> uint(s)) & 0xff
		h *= fnvPrime64
	}
	return h
}

func modelVersionHash(p *core.Pipeline) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(p.Cfg.D))
	h = fnvMix(h, uint64(p.HD.K))
	for _, v := range p.HD.M.Data {
		h = fnvMix(h, uint64(math.Float32bits(v)))
	}
	if p.Proj.Seeded {
		h = fnvMix(h, 1)
		h = fnvMix(h, uint64(p.Proj.Seed))
	} else {
		h = fnvMix(h, 2)
		for _, v := range p.Proj.P.Data {
			h = fnvMix(h, uint64(math.Float32bits(v)))
		}
	}
	return h
}

// ModelBytes reports the engine's TRUE serving footprint: every weight the
// compiled plan keeps resident, summed over BytesBreakdown — extractor and
// manifold parameters, the projection operand (prepacked panels, the folded
// matrix, or the 8-byte seed under WithRemat) and the classifier snapshot.
func (e *Engine) ModelBytes() int64 {
	var total int64
	for _, b := range e.bytes {
		total += b.Bytes
	}
	return total
}

// BytesBreakdown itemizes ModelBytes per compiled stage, in Stages() order.
func (e *Engine) BytesBreakdown() []StageBytes {
	return append([]StageBytes(nil), e.bytes...)
}

// ArenaBytes reports one worker arena's slab footprint.
func (e *Engine) ArenaBytes() int64 { return e.proto.FootprintBytes() }

// Stages lists the compiled stage names, extractor first, the tail last.
func (e *Engine) Stages() []string {
	names := make([]string, 0, len(e.stages)+1)
	for _, s := range e.stages {
		names = append(names, s.Name())
	}
	return append(names, e.tail.name)
}

// stageWeightBytes sums the resident weights of one feature stage.
func stageWeightBytes(st Stage) int64 {
	switch s := st.(type) {
	case extractStage:
		return paramBytes(s.ex.Params())
	case manifoldStage:
		return paramBytes(s.ml.Params())
	case lshStage:
		// The engine-resident operand is the prepacked panel copy, not the
		// pipeline's dense matrix.
		return s.panels.MemoryBytes()
	}
	return 0
}

func paramBytes(ps []*nn.Param) int64 {
	var total int64
	for _, p := range ps {
		total += int64(p.W.Len()) * 4
	}
	return total
}

// init hooks the engine into core: Pipeline.Predict/Accuracy/QueryHVs compile
// and cache an Engine through this registration, keeping core free of an
// import cycle. Any program importing this package (the public nshd surface
// does) serves through the Engine automatically.
func init() {
	core.RegisterEngineCompiler(func(p *core.Pipeline) (core.Predictor, error) {
		return Compile(p)
	})
}
