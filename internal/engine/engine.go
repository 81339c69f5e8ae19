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
// training loop. The two paths stay apart: core.Pipeline predicts through its
// own direct path (PredictDirect, Accuracy, QueryHVs) and never compiles an
// engine, and a serving process compiles one explicitly with Compile.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"

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
// items) because every pool waiter runs only its own tasks — see
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
// snapshot behind — recompile after training.
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
	// depend on a queued pool task making progress. The fan-outs that run
	// there (a fused block's over its tiles, the streamed FC's column split)
	// hold to that: a pool waiter claims only its own tasks, and their tasks
	// take no arena. The batch
	// split (forParts) is not among them: each part takes its arena inside
	// its task, and the caller holds none while it waits.
	proto  *tensor.Arena
	arenas *parallel.Freelist[*tensor.Arena]
	fans   *parallel.Freelist[*fanout]
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

// flattenStage reshapes [N, C, H, W] features to [N, F] for the LSH (a view,
// no copy).
type flattenStage struct{}

func (flattenStage) Name() string { return "flatten" }
func (flattenStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n := x.Shape[0]
	return ar.Wrap(x.Data, n, x.Len()/n)
}

// lshStage runs BaselineHD's LSH reduction (a binary random projection),
// keeping only the signed output. Its ±1 operand is held as sign words, as
// the tail's projection is, so a product needs panel scratch but no per-call
// packing pass.
type lshStage struct {
	pr     *hdc.Projection
	panels *tensor.ProjPanels
}

func newLSHStage(pr *hdc.Projection) lshStage { return lshStage{pr, tensor.SignPanels(pr.P)} }

func (s lshStage) Name() string { return "lsh" }
func (s lshStage) Run(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	out := ar.Alloc(x.Shape[0], s.pr.D)
	m := ar.Mark()
	s.pr.EncodeBatchPanelsInto(x, out, out, s.panels, ar.Floats(tensor.PanelScratch()))
	ar.Release(m)
	return out
}

// ErrNotBipolar marks a Compile error for a projection matrix (the encoder's
// P, or BaselineHD's LSH operand) with an entry that is not exactly +1 or −1:
// the engine holds those as sign words, which would serve it as a different
// matrix. core.New and core.Load build only seeded ±1 matrices.
var ErrNotBipolar = errors.New("engine: projection entry is not ±1")

// checkBipolar returns an error wrapping ErrNotBipolar naming the first entry
// of the [F, D] matrix that is not exactly ±1 (0, −0, NaN, ±Inf, 0.5 …). One
// test per entry: `v != 1 && v != -1` would branch on P's random signs.
func checkBipolar(name string, m *tensor.Tensor) error {
	for i, v := range m.Data {
		if math.Abs(float64(v)) != 1 {
			d := m.Shape[1]
			return fmt.Errorf("%w: %s[%d, %d] = %v", ErrNotBipolar, name, i/d, i%d, v)
		}
	}
	return nil
}

// Compile freezes a trained pipeline into an Engine. It validates that every
// extractor layer has an inference path, snapshots the classifier (packed or
// float, per cfg.PackedInference), then runs one warmup chunk of zeros
// through the stage chain on a measuring arena to size the per-worker slabs.
// Predictions agree with the pipeline's direct path per-sample, bit-for-bit:
// every stage reuses the training kernels' exact accumulation order. The
// projection (and the LSH operand) must be ±1 (ErrNotBipolar): it is served
// from sign words (see tail.go).
func Compile(p *core.Pipeline, opts ...Option) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("engine: nil pipeline")
	}
	var o compileOptions
	for _, opt := range opts {
		opt.applyOption(&o)
	}
	in := p.Zoo.InShape
	if len(in) != 3 {
		return nil, fmt.Errorf("engine: zoo input shape %v, want [C H W]", in)
	}
	if err := checkBipolar("projection", p.Proj.P); err != nil {
		return nil, err
	}
	if p.Manifold == nil {
		if err := checkBipolar("LSH projection", p.LSH.P); err != nil {
			return nil, err
		}
	}

	if p.Cfg.D < 1 {
		return nil, fmt.Errorf("engine: hypervector dimension D=%d", p.Cfg.D)
	}
	e := &Engine{
		inShape:   [3]int{in[0], in[1], in[2]},
		sampleLen: in[0] * in[1] * in[2],
		d:         p.Cfg.D,
		version:   modelVersionHash(p),
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
	if p.Manifold != nil {
		e.stages = []Stage{extractStage{ex}, manifoldStage{p.Manifold}}
	} else {
		e.stages = []Stage{extractStage{ex}, flattenStage{}, newLSHStage(p.LSH)}
	}
	e.tail = buildTail(p)
	for _, st := range e.stages {
		e.bytes = append(e.bytes, StageBytes{st.Name(), stageWeightBytes(st)})
	}
	e.bytes = append(e.bytes, e.tail.bytes...)

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

	// Compile is the last thing the engine allocates, and it leaves the
	// measuring arena's buffers behind as garbage. Collect now, while the
	// model is live, so that the heap goal is set from the model: left to
	// chance, a process that builds models one after another (a reload, the
	// benchmark's repeated fixture builds) can have its next cycle fall where
	// the previous model is already dead, the goal collapses to what little
	// is live, the scavenger returns tens of MB to the OS and the next build
	// re-faults them (CHANGES.md has the measurement).
	runtime.GC()
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
	e.tail.run(e.runChunk(ar, zero, chunk), make([]int, chunk), ar, nil)
	return nil
}

// batchJob is one PredictInto call: the batch and the labels its tail fills.
// A struct, not a closure, so that handing it to the fan-out allocates
// nothing.
type batchJob struct {
	images []float32
	n      int
	preds  []int
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
	defer func() {
		f.batchJob = batchJob{}
		e.fans.Put(f)
	}()
	f.batchJob, f.parts = job, parts
	f.call.RunN(parts)
}

// runPart takes a worker arena, runs samples [start, end) of the job through
// the feature stages and the tail, and returns the arena — also when a stage
// panics, or every arena would be gone after as many panics as there are.
func (e *Engine) runPart(j *batchJob, start, end int) {
	ar := e.arenas.Get()
	defer e.arenas.Put(ar)
	x := e.runChunk(ar, j.images[start*e.sampleLen:end*e.sampleLen], end-start)
	e.tail.run(x, j.preds[start:end], ar, nil)
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
	// Checked here, before any part runs: a part reading past a short Data
	// would read its spare capacity silently or, on a pool helper, panic
	// where no recover of the caller's reaches.
	if n := images.Shape[0]; len(images.Data) < n*e.sampleLen {
		return fmt.Errorf("engine: %d images of %d floats need %d floats, Data holds %d",
			n, e.sampleLen, n*e.sampleLen, len(images.Data))
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

// ErrInternal marks an error PredictChecked made out of a recovered panic: a
// fault in the engine or its caller's tensor, never something a well-formed
// request did wrong.
var ErrInternal = errors.New("engine: internal error")

// PredictChecked is the serving form of PredictInto: the same validation,
// plus a recover barrier that converts any panic escaping the stage chain
// (an arena sizing bug, a kernel fault) into an error wrapping ErrInternal —
// also one raised on a pool helper, which the batch split's fan-out carries
// back to this goroutine. A serving front end must
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
// class matrix, the projection's seed, and the shape facts (D, K). Engines
// compiled from one trained model report the same version; retraining
// changes it.
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
	// The 1 once told a seeded projection from a hashed matrix; it stays so
	// that every model_version keeps its value.
	h = fnvMix(h, 1)
	return fnvMix(h, uint64(p.Proj.Seed))
}

// ModelBytes reports the engine's TRUE serving footprint: every weight the
// compiled plan keeps resident, summed over BytesBreakdown — extractor and
// manifold parameters, the projection operand (P's sign words, F̂·⌈D/64⌉·8
// bytes as Pipeline.Costs counts them) and the classifier snapshot.
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
		// The engine-resident operand is the sign-word copy, not the
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
