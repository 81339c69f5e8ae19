// Package nshd is the public API of this repository: a from-scratch Go
// implementation of NSHD ("Comprehensive Integration of Hyperdimensional
// Computing with Deep Learning towards Neuro-Symbolic AI", DAC 2023).
//
// NSHD symbolizes images through a cut, pretrained CNN, a learned manifold
// compression layer and a binary random-projection HD encoder, then
// classifies with class hypervectors retrained via MASS extended with
// knowledge distillation from the full CNN (Algorithm 1).
//
// Quickstart:
//
//	train, test := nshd.SynthCIFAR(nshd.DefaultSynthConfig())
//	means, stds := train.Normalize()
//	test.ApplyNormalization(means, stds)
//
//	zoo, _ := nshd.BuildModel("mobilenetv2", 1, train.Classes)
//	nshd.Pretrain(zoo, train, nshd.DefaultPretrainConfig(), nshd.NewRNG(7))
//
//	cfg := nshd.DefaultConfig(17, train.Classes) // cut at layer 17
//	model, _ := nshd.New(zoo, cfg)
//	model.Train(train, os.Stderr)
//	fmt.Println("accuracy:", model.Accuracy(test))
//
// The internal packages expose the substrates (tensor/NN library, HD
// algebra, hardware models, t-SNE); this package re-exports the surface a
// downstream user needs.
package nshd

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"nshd/internal/baseline"
	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/dataset"
	"nshd/internal/engine"
	"nshd/internal/hdc"
	"nshd/internal/hwsim"
	"nshd/internal/parallel"
	"nshd/internal/serve"
	"nshd/internal/tensor"
	"nshd/internal/tsne"
)

// --- core pipeline ---

// Config parameterizes an NSHD pipeline (dimension D, manifold width F̂,
// distillation α and T, retraining schedule).
type Config = core.Config

// Pipeline is a fully assembled NSHD model.
type Pipeline = core.Pipeline

// TrainReport records the outcome of Pipeline.Train.
type TrainReport = core.TrainReport

// CostReport breaks down inference MACs and model bytes (Table II / Fig. 5).
type CostReport = core.CostReport

// DefaultConfig mirrors the paper's setup (D=3000, F̂=100, KD enabled).
func DefaultConfig(cutLayer, classes int) Config { return core.DefaultConfig(cutLayer, classes) }

// New assembles an NSHD pipeline over a (pretrained) zoo model; with
// Config.UseManifold off, the features reduce through BaselineHD's LSH instead.
func New(zoo *Model, cfg Config) (*Pipeline, error) { return core.New(zoo, cfg) }

// NewBaselineHD assembles the prior-work comparison: same cut extractor, an
// LSH reduction to min(F, 1024) bits in place of the manifold layer, and MASS
// retraining without knowledge distillation.
func NewBaselineHD(zoo *Model, cfg Config) (*Pipeline, error) { return core.NewBaselineHD(zoo, cfg) }

// LoadPipeline restores a pipeline saved with Pipeline.Save.
func LoadPipeline(path string) (*Pipeline, error) { return core.Load(path) }

// --- serving ---

// Engine is a frozen, zero-allocation inference engine compiled from a
// trained pipeline: the classifier is snapshotted, per-worker scratch arenas
// are sized once at compile time, and steady-state batches run without
// touching the heap. Safe for concurrent use. Pipeline.PredictDirect/
// Accuracy/QueryHVs run the pipeline's direct path and never compile an
// Engine; serving compiles one explicitly, which also pins a model version:
//
//	eng, _ := nshd.Compile(model)
//	preds, _ := eng.Predict(test.Images)
type Engine = engine.Engine

// StageBytes is one itemized component of an engine's resident serving
// weights (see Engine.BytesBreakdown).
type StageBytes = engine.StageBytes

// StageTime is one pipeline stage's measured wall time for a batch, with
// per-layer / per-fused-block sub-steps where the stage can attribute them
// (see Engine.TimeStages).
type StageTime = engine.StageTime

// Compile freezes a trained pipeline into a serving Engine. It takes no
// options: the tail, the extractor's fused blocks and the batch split are all
// decided from the pipeline's shape.
func Compile(p *Pipeline) (*Engine, error) { return engine.Compile(p) }

// Batcher is the concurrent serving front end: it coalesces single-sample
// (or small) requests from many goroutines into engine-sized micro-batches,
// flushing on a size threshold or a max-queue-delay deadline, with a bounded
// admission queue (ErrOverloaded on saturation), per-request context
// cancellation, graceful drain via Close, and atomic engine hot-swap:
//
//	b, _ := nshd.NewBatcher(eng, nshd.BatcherOptions{})
//	class, _ := b.Predict(ctx, sample) // rides a shared micro-batch
type Batcher = serve.Batcher

// BatcherOptions tune the micro-batching policy; the zero value derives
// everything from the engine (MaxBatch = chunk size, MaxDelay = 1ms,
// QueueCap = 4×MaxBatch). MaxDelay is an upper bound: PredictServer announces
// each /predict request as its handler starts, and a batch made only of such
// requests flushes as soon as the queue is empty and none is still on its
// way. Direct Batcher callers announce nothing, so their batches linger up to
// MaxDelay for a companion.
type BatcherOptions = serve.Options

// ServeSnapshot is one point-in-time view of a Batcher's metrics.
type ServeSnapshot = serve.Snapshot

// PredictServer exposes a Batcher over HTTP (POST /predict JSON or binary,
// GET /healthz, GET /metrics); cmd/nshd-serve is the standalone binary.
type PredictServer = serve.Server

// ErrOverloaded is returned when the batcher's admission queue is full.
var ErrOverloaded = serve.ErrOverloaded

// ErrServeClosed is returned by batcher predictions after Close.
var ErrServeClosed = serve.ErrClosed

// NewBatcher wraps a compiled engine in a micro-batching front end and
// starts its flush loop; Close drains and stops it.
func NewBatcher(e *Engine, opts BatcherOptions) (*Batcher, error) { return serve.New(e, opts) }

// NewPredictServer wraps a batcher in the HTTP front end; timeout ≤ 0
// disables the per-request deadline.
func NewPredictServer(b *Batcher, timeout time.Duration) *PredictServer {
	return serve.NewServer(b, timeout)
}

// --- model zoo ---

// Model is a zoo CNN with paper-style layer indexing and a Cut operation.
type Model = cnn.Model

// PretrainConfig controls teacher pretraining.
type PretrainConfig = cnn.PretrainConfig

// BuildModel constructs a zoo model ("vgg16", "mobilenetv2", "effnetb0",
// "effnetb7") with seeded initialization.
func BuildModel(name string, seed int64, classes int) (*Model, error) {
	return cnn.Build(name, tensor.NewRNG(seed), classes)
}

// ModelNames lists the registered zoo models.
func ModelNames() []string { return cnn.Names() }

// PaperLayers returns the cut layers the paper evaluates for a model.
func PaperLayers(name string) []int { return cnn.PaperLayers(name) }

// DefaultPretrainConfig returns the harness's pretraining schedule.
func DefaultPretrainConfig() PretrainConfig { return cnn.DefaultPretrainConfig() }

// Pretrain trains (or restores from cache) the full CNN on the training
// split, returning (train accuracy, restored-from-cache).
func Pretrain(m *Model, train *Dataset, cfg PretrainConfig, rng *RNG) (float64, bool, error) {
	return cnn.Pretrain(m, train, cfg, rng)
}

// --- datasets ---

// Dataset is a labelled image set in [N, C, H, W] layout.
type Dataset = dataset.Dataset

// SynthConfig parameterizes the SynthCIFAR generator.
type SynthConfig = dataset.SynthConfig

// DefaultSynthConfig mirrors the CIFAR-10 geometry at reproduction scale.
func DefaultSynthConfig() SynthConfig { return dataset.DefaultSynthConfig() }

// SynthCIFAR generates seeded train/test splits of the synthetic
// image-classification workload.
func SynthCIFAR(cfg SynthConfig) (train, test *Dataset) { return dataset.SynthCIFAR(cfg) }

// LoadCIFAR10 reads real CIFAR-10 binary batches when available on disk.
func LoadCIFAR10(paths ...string) (*Dataset, error) { return dataset.LoadCIFAR10(paths...) }

// LoadCIFAR100 reads real CIFAR-100 binary files when available on disk.
func LoadCIFAR100(paths ...string) (*Dataset, error) { return dataset.LoadCIFAR100(paths...) }

// --- baselines ---

// VanillaHD is the standalone HD classifier over raw pixels (non-linear
// encoding), the paper's motivating baseline.
type VanillaHD = baseline.VanillaHD

// VanillaConfig parameterizes VanillaHD.
type VanillaConfig = baseline.VanillaConfig

// DefaultVanillaConfig mirrors the paper's standalone-HD setup.
func DefaultVanillaConfig() VanillaConfig { return baseline.DefaultVanillaConfig() }

// NewVanillaHD constructs a VanillaHD model for a dataset's geometry.
func NewVanillaHD(d *Dataset, cfg VanillaConfig) (*VanillaHD, error) {
	return baseline.NewVanillaHD(d, cfg)
}

// --- hyperdimensional primitives ---

// Hypervector is a dense hypervector; see internal/hdc for the full algebra.
type Hypervector = hdc.Hypervector

// RandomBipolar samples a uniform ±1 hypervector.
func RandomBipolar(rng *RNG, d int) Hypervector { return hdc.RandomBipolar(rng, d) }

// Bind returns the elementwise product a ⊗ b (self-inverse for bipolar
// inputs, quasi-orthogonal to both operands).
func Bind(a, b Hypervector) Hypervector { return hdc.Bind(a, b) }

// Bundle returns the elementwise sum of hypervectors (similar to each
// input); call Sign on the result for a bipolar composite.
func Bundle(hs ...Hypervector) Hypervector { return hdc.Bundle(hs...) }

// Dot returns the dot-product similarity δ(a, b).
func Dot(a, b Hypervector) float64 { return hdc.Dot(a, b) }

// --- hardware models ---

// EnergyModel is the Xavier-class per-operation energy model (Fig. 4).
type EnergyModel = hwsim.EnergyModel

// DPUConfig is the ZCU104 DPU accelerator model (Table I, Figs. 6/10).
type DPUConfig = hwsim.DPUConfig

// XavierModel returns the default edge-GPGPU energy model.
func XavierModel() EnergyModel { return hwsim.XavierModel() }

// DefaultDPU returns the accelerator configuration reproducing Table I.
func DefaultDPU() DPUConfig { return hwsim.DefaultDPU() }

// --- explainability ---

// TSNEConfig controls the t-SNE embedding of Fig. 11.
type TSNEConfig = tsne.Config

// TSNEEmbed computes a 2-D embedding of [N, F] data.
func TSNEEmbed(data *Tensor, cfg TSNEConfig) (*Tensor, error) { return tsne.Embed(data, cfg) }

// KNNPurity quantifies cluster formation in an embedding.
func KNNPurity(y *Tensor, labels []int, k int) float64 { return tsne.KNNPurity(y, labels, k) }

// DefaultTSNEConfig returns sklearn-like defaults.
func DefaultTSNEConfig() TSNEConfig { return tsne.DefaultConfig() }

// --- utilities ---

// Tensor is the dense float32 tensor underlying all data flow.
type Tensor = tensor.Tensor

// RNG is the seeded random source used throughout the repository.
type RNG = tensor.RNG

// NewRNG returns a deterministic RNG.
func NewRNG(seed int64) *RNG { return tensor.NewRNG(seed) }

// NewTensor allocates a zeroed tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// KernelISA names the instruction set the float GEMM kernels run on in this
// process, decided once at start-up from what the CPU and the OS offer:
// "avx512f", "avx2+fma" or "portable". All three compute the same schedule,
// and the two vector widths the same bits.
func KernelISA() string { return tensor.KernelISA() }

// RunManifest returns the header line a command prints before any other
// output, so that what it prints says what produced it: the binary's VCS
// revision and whether its tree was modified (debug.ReadBuildInfo; "unknown"
// in a build without VCS stamps, such as go run), the command's own settings
// as key, value pairs, the worker count and the GEMM kernels (KernelISA).
func RunManifest(kv ...any) string {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# run: rev=%s modified=%s", rev, modified)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(&b, " %v=%v", kv[i], kv[i+1])
	}
	fmt.Fprintf(&b, " workers=%d kernels=%s", parallel.Workers(), tensor.KernelISA())
	return b.String()
}

// --- symbolic sequence encoding (HD fundamentals, refs [12][13]) ---

// SequenceEncoder encodes symbol sequences with the classic rotate-and-bind
// n-gram scheme used by HD language/speech recognition.
type SequenceEncoder = hdc.SequenceEncoder

// SequenceClassifier bundles sequence encodings into class centroids.
type SequenceClassifier = hdc.SequenceClassifier

// NewSequenceEncoder constructs an n-gram encoder of dimension d.
func NewSequenceEncoder(rng *RNG, d, n int) *SequenceEncoder {
	return hdc.NewSequenceEncoder(rng, d, n)
}

// NewSequenceClassifier wraps a sequence encoder in a bundling classifier.
func NewSequenceClassifier(enc *SequenceEncoder) *SequenceClassifier {
	return hdc.NewSequenceClassifier(enc)
}
