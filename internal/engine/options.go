package engine

// Option configures Compile: WithUnfusedExtract.
type Option interface{ applyOption(*compileOptions) }

type compileOptions struct {
	// unfused keeps the extractor layer-by-layer instead of letting
	// nn.FuseInference tile its fusible runs.
	unfused bool
}

type optionFunc func(*compileOptions)

func (f optionFunc) applyOption(o *compileOptions) { f(o) }

// WithUnfusedExtract keeps the extractor layer-by-layer. It is a test and
// benchmark hook, not a serving choice: the engine tests compare the fused
// extraction blocks against it bit for bit, and benchmark/layers.go compiles
// its per-layer reference with it. The default fuses every conv→BN→ReLU→pool
// run that clears nn.FuseMinMACs; results are bit-identical either way.
func WithUnfusedExtract() Option {
	return optionFunc(func(o *compileOptions) { o.unfused = true })
}
