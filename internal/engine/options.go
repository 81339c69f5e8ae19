package engine

// Option configures Compile: WithRemat, WithUnfusedExtract or
// WithCompression.
type Option interface{ applyOption(*compileOptions) }

type compileOptions struct {
	remat bool
	// unfused keeps the extractor layer-by-layer instead of letting
	// nn.FuseInference tile its fusible runs.
	unfused bool
	// plan compresses the pipeline before compiling (see compress.go): nil,
	// or a dimension-pruning + low-rank + sub-byte-precision plan produced by
	// Engine.Compress or NewCompressPlan.
	plan *CompressPlan
}

type optionFunc func(*compileOptions)

func (f optionFunc) applyOption(o *compileOptions) { f(o) }

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
// plans compile to the exact source engine.
func WithCompression(plan *CompressPlan) Option {
	return optionFunc(func(o *compileOptions) { o.plan = plan })
}
