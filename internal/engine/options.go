package engine

import "nshd/internal/tensor"

// Precision selects the numeric format of the compiled feature stages.
//
// Float32 is the default: every stage runs the exact training kernels and
// predictions match the pipeline's direct path bit-for-bit. Int8 rebuilds
// the extractor and manifold in quantized arithmetic — u8 activations, i8
// weights, int32 accumulation (tensor.MatMulInt8Into's datapath) — which
// roughly halves activation bandwidth and runs the VNNI GEMM where the CPU
// has it. Layers with no quantized implementation fall back to float
// per-layer, so any servable pipeline compiles in either mode; the
// LSH/projection/classifier tail always runs its existing 1-bit/float path,
// which is already integer-dominated.
//
// Int8 predictions are approximate. Calibration chooses activation ranges
// from sample images (WithCalibration); without them a synthetic batch is
// used and accuracy on real data is at risk — always calibrate with
// in-distribution images for deployment.
type Precision int

const (
	// Float32 serves with the exact training kernels.
	Float32 Precision = iota
	// Int8 serves the extractor/manifold in quantized int8 arithmetic.
	Int8
)

// String names the precision for logs and tooling.
func (p Precision) String() string {
	if p == Int8 {
		return "int8"
	}
	return "float32"
}

// Option configures Compile. Precision values are options themselves, so
// callers write Compile(p, engine.Int8, engine.WithCalibration(imgs)).
type Option interface{ applyOption(*compileOptions) }

type compileOptions struct {
	precision Precision
	calib     *tensor.Tensor
	remat     bool
	// unfused keeps the extractor layer-by-layer instead of letting
	// nn.FuseInference tile its fusible runs.
	unfused bool
	// plan compresses the pipeline before compiling (see compress.go): nil,
	// or a dimension-pruning + low-rank + sub-byte-precision plan produced by
	// Engine.Compress or NewCompressPlan.
	plan *CompressPlan
}

func (p Precision) applyOption(o *compileOptions) { o.precision = p }

type optionFunc func(*compileOptions)

func (f optionFunc) applyOption(o *compileOptions) { f(o) }

// WithCalibration provides images ([N, C, H, W], matching the pipeline
// input shape) whose activation statistics set the int8 quantization ranges.
// Ignored under Float32. A few dozen in-distribution samples suffice; the
// observers are deterministic, so the same images always produce the same
// engine.
func WithCalibration(images *tensor.Tensor) Option {
	return optionFunc(func(o *compileOptions) { o.calib = images })
}

// WithRemat makes the tail rematerialize the projection matrix from its
// 8-byte seed inside the GEMM panel step instead of keeping prepacked panels
// resident: encoder serving bytes collapse from O(F̂·D) to the seed. Requires
// a seeded projection (core pipelines are seeded by construction). Output is
// bit-identical to the prepacked tail; the trade is a modest GEMM slowdown
// for the O(1) footprint. A rematerialized tail never folds the manifold
// (the folded matrix G is dense, not seed-defined).
func WithRemat() Option {
	return optionFunc(func(o *compileOptions) { o.remat = true })
}

// WithUnfusedExtract keeps the extractor layer-by-layer — the reference the
// fused extraction blocks are tested and benchmarked against. The default
// fuses every conv→BN→ReLU→pool run that clears nn.FuseMinMACs; results are
// bit-identical either way.
func WithUnfusedExtract() Option {
	return optionFunc(func(o *compileOptions) { o.unfused = true })
}

// WithCompression compiles the pipeline under a compression plan. Identity
// plans compile to the exact source engine; any other plan requires the full
// [0, D) range (CompileShard returns ErrCompressedTiling — a pruned dimension
// set cannot tile with other shards' columns).
func WithCompression(plan *CompressPlan) Option {
	return optionFunc(func(o *compileOptions) { o.plan = plan })
}
