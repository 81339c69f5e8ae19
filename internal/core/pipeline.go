package core

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"nshd/internal/cnn"
	"nshd/internal/dataset"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/manifold"
	"nshd/internal/metrics"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// Pipeline is a fully assembled NSHD model.
//
// Symbolization (Sec. IV): H = Φ_P(Ψ(conv(x))) — the cut CNN extracts
// features, the manifold learner compresses them to F̂ values, and the
// binary random projection encodes them into a D-dimensional hypervector.
// Classification compares H against the class hypervectors.
type Pipeline struct {
	Cfg Config
	// Zoo is the full CNN; it is the distillation teacher and shares its
	// pretrained weights with the extractor.
	Zoo *cnn.Model
	// Extractor is the cut prefix conv(·).
	Extractor *nn.Sequential
	// FeatShape is the per-sample extractor output shape [C, H, W].
	FeatShape []int
	// Manifold is Ψ; nil when Cfg.UseManifold is false (BaselineHD).
	Manifold *manifold.Learner
	// LSH holds BaselineHD's random hyperplanes ([F, LSHDim] bipolar); nil
	// unless the manifold is disabled and Cfg.LSHDim > 0.
	LSH *hdc.Projection
	// Proj is the binary random projection Φ_P.
	Proj *hdc.Projection
	// HD holds the class hypervectors.
	HD *hdlearn.Model

	rng *tensor.RNG

	// Cached serving engine (see serving.go), keyed on the HD model version
	// and the inference-kernel config.
	srv        Predictor
	srvVersion uint64
	srvPacked  bool
	srvTried   bool
}

// New assembles an NSHD pipeline over a (pretrained) zoo model.
func New(zoo *cnn.Model, cfg Config) (*Pipeline, error) {
	if cfg.Classes == 0 {
		cfg.Classes = zoo.Classes
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if zoo.Classes != cfg.Classes {
		return nil, fmt.Errorf("core: zoo model has %d classes, config wants %d", zoo.Classes, cfg.Classes)
	}
	extractor, err := zoo.Cut(cfg.CutLayer)
	if err != nil {
		return nil, err
	}
	featShape := extractor.OutShape(zoo.InShape)
	if len(featShape) != 3 {
		return nil, fmt.Errorf("core: extractor output shape %v, want [C H W]", featShape)
	}
	rng := tensor.NewRNG(cfg.Seed)
	p := &Pipeline{
		Cfg:       cfg,
		Zoo:       zoo,
		Extractor: extractor,
		FeatShape: featShape,
		HD:        hdlearn.NewModel(cfg.Classes, cfg.D),
		rng:       rng,
	}
	encF := featShape[0] * featShape[1] * featShape[2]
	switch {
	case cfg.UseManifold:
		ml, err := manifold.New(rng.Fork(), featShape, cfg.FHat)
		if err != nil {
			return nil, err
		}
		if err := ml.CheckClasses(cfg.Classes); err != nil {
			return nil, err
		}
		p.Manifold = ml
		encF = cfg.FHat
	case cfg.LSHDim > 0:
		// BaselineHD's reduction [9]: sign projections onto LSHDim random
		// hyperplanes (bipolar, so the hash is add/sub only).
		l := cfg.LSHDim
		if l > encF {
			l = encF
		}
		p.LSH = hdc.NewSeededProjection(rng.Int63(), encF, l)
		encF = l
	}
	// Seeded projections: the matrix is a pure function of one 64-bit draw
	// from the config's RNG stream (the same single draw Fork would make, so
	// every downstream sampling decision is unchanged). A model version
	// hashes the seed instead of the D×F matrix, and snapshots keep
	// reconstructing the projection from Cfg.Seed exactly as before.
	p.Proj = hdc.NewSeededProjection(rng.Int63(), encF, cfg.D)
	return p, nil
}

// NewBaselineHD assembles the prior-work comparison model [9]: the same cut
// feature extractor, an LSH random-hyperplane reduction in place of the
// manifold learner, and plain MASS retraining without knowledge
// distillation.
func NewBaselineHD(zoo *cnn.Model, cfg Config) (*Pipeline, error) {
	cfg.UseManifold = false
	cfg.UseKD = false
	if cfg.LSHDim == 0 {
		cfg.LSHDim = 1024
	}
	return New(zoo, cfg)
}

// checkImages reports an images batch that is not [N, C, H, W] of the zoo
// model's input shape. The extractor would run on any map size and leave
// features of the wrong length, which ExtractFeatures would then pack into
// slots sized for the zoo's.
func (p *Pipeline) checkImages(images *tensor.Tensor) error {
	if images.Rank() != 1+len(p.Zoo.InShape) || !slices.Equal(images.Shape[1:], p.Zoo.InShape) {
		return fmt.Errorf("core: image shape %v, pipeline built for [N %s]", images.Shape, strings.Trim(fmt.Sprint(p.Zoo.InShape), "[]"))
	}
	return nil
}

// ExtractFeatures runs the frozen extractor over images on nn.Infer, in parts
// of at most Cfg.BatchSize images, returning the [N, C, H, W] feature tensor.
// It panics on images not shaped [N, C, H, W] as the zoo model's input.
func (p *Pipeline) ExtractFeatures(images *tensor.Tensor) *tensor.Tensor {
	if err := p.checkImages(images); err != nil {
		panic(err.Error())
	}
	return nn.Infer(p.Extractor, images, p.Cfg.BatchSize)
}

// Symbolize maps a feature batch to query hypervectors: raw (pre-sign) and
// signed bipolar, via the manifold (when enabled) and the projection.
// Set train to cache manifold intermediates for a following backward pass.
func (p *Pipeline) Symbolize(feats *tensor.Tensor, train bool) (v, raw, signed *tensor.Tensor) {
	return p.symbolizePooled(p.pooled(feats), train)
}

// pooled is the parameter-free front of Symbolize, [N, C, H, W] → [N, F]: the
// manifold's max-pool and flatten, or just the flatten without a manifold.
func (p *Pipeline) pooled(feats *tensor.Tensor) *tensor.Tensor {
	if p.Manifold != nil {
		return p.Manifold.Pooled(feats)
	}
	return feats.Reshape(feats.Shape[0], -1)
}

// symbolizePooled is Symbolize from pooled features.
func (p *Pipeline) symbolizePooled(pooled *tensor.Tensor, train bool) (v, raw, signed *tensor.Tensor) {
	v = p.reduce(pooled, train)
	raw, signed = p.Proj.EncodeBatch(v)
	return v, raw, signed
}

// reduce is Symbolize's step between pooling and projection: the manifold,
// BaselineHD's LSH, or nothing.
func (p *Pipeline) reduce(pooled *tensor.Tensor, train bool) *tensor.Tensor {
	switch {
	case p.Manifold != nil:
		return p.Manifold.ForwardPooled(pooled, train)
	case p.LSH != nil:
		_, v := p.LSH.EncodeBatch(pooled)
		return v
	}
	return pooled
}

// signedOnPanels is symbolizePooled(pooled, false)'s signed query
// hypervectors, with the projection's product on P prepacked as pp and the
// signs written over it: the same bits, in one [N, D] buffer.
func (p *Pipeline) signedOnPanels(pooled *tensor.Tensor, pp *tensor.ProjPanels) *tensor.Tensor {
	v := p.reduce(pooled, false)
	signed := tensor.New(v.Shape[0], p.Cfg.D)
	tensor.MatMulPanelsParallelInto(signed, v, pp)
	tensor.SignInPlace(signed.Data)
	return signed
}

// TrainReport records the outcome of Pipeline.Train.
type TrainReport struct {
	// TeacherTrainAccuracy is the full CNN's accuracy on the training split
	// (context for distillation quality).
	TeacherTrainAccuracy float64
	// Epochs holds HD train accuracy per retraining epoch.
	Epochs []hdlearn.EpochStats
	// FinalTrainAccuracy is the HD model's accuracy after retraining.
	FinalTrainAccuracy float64
}

// Train runs the NSHD training procedure on a labelled dataset:
//
//  1. extract features once with the frozen CNN prefix;
//  2. compute the teacher's logits once by resuming the frozen full CNN from
//     those features — the layers after the cut, then the head
//     (cnn.Model.Rest) — which is nn.PredictLogits(Zoo.Full(), images) bit
//     for bit without running the prefix a second time;
//  3. initialize class hypervectors by single-pass bundling;
//  4. for each epoch, per batch: symbolize, compute Algorithm 1's update
//     matrix U, bundle λ·Uᵀ·H into the class hypervectors, and — when the
//     manifold is enabled — decode the query-side error through the HD
//     encoder (straight-through estimator across sign) and backpropagate it
//     into the manifold FC layer.
func (p *Pipeline) Train(train *dataset.Dataset, log io.Writer) (*TrainReport, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.Classes != p.Cfg.Classes {
		return nil, fmt.Errorf("core: dataset has %d classes, pipeline %d", train.Classes, p.Cfg.Classes)
	}
	if err := p.checkImages(train.Images); err != nil {
		return nil, err
	}
	feats := p.ExtractFeatures(train.Images)
	var teacherLogits *tensor.Tensor
	if p.Cfg.UseKD {
		rest, err := p.Zoo.Rest(p.Cfg.CutLayer)
		if err != nil {
			return nil, err
		}
		teacherLogits = nn.PredictLogits(rest, feats, p.Cfg.BatchSize)
	}
	return p.TrainOnFeatures(feats, train.Labels, teacherLogits, log)
}

// TrainOnFeatures runs the HD retraining loop on precomputed extractor
// features (and teacher logits when KD is enabled). Hyperparameter sweeps
// use it to share the expensive CNN passes across dozens of retrainings.
//
// The features are frozen, so everything Symbolize does to them before the
// first learned parameter — the manifold's max-pool and flatten — is done
// once, and the initial bundle, every batch of the joint loop and the final
// re-bundle start from that pooled [N, F] matrix.
func (p *Pipeline) TrainOnFeatures(feats *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, log io.Writer) (*TrainReport, error) {
	if feats.Shape[0] != len(labels) {
		return nil, fmt.Errorf("core: %d feature rows but %d labels", feats.Shape[0], len(labels))
	}
	if p.Cfg.UseKD {
		if teacherLogits == nil {
			return nil, fmt.Errorf("core: KD enabled but no teacher logits supplied")
		}
		if teacherLogits.Shape[0] != len(labels) || teacherLogits.Shape[1] != p.Cfg.Classes {
			return nil, fmt.Errorf("core: teacher logits shape %v", teacherLogits.Shape)
		}
	}
	report := &TrainReport{}
	if teacherLogits != nil {
		report.TeacherTrainAccuracy = nn.Accuracy(teacherLogits, labels)
	}

	// Initial single-pass bundle with the untrained manifold. Every encode
	// of the call runs on P prepacked once (tensor.MatMulPanelsParallelInto),
	// which gives EncodeBatch's bits.
	projPanels := tensor.PrepackPanels(p.Proj.P)
	pooled := p.pooled(feats)
	signed := p.signedOnPanels(pooled, projPanels)
	p.HD.InitBundle(signed, labels)

	n := len(labels)
	featLen := pooled.Shape[1]
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var opt nn.Optimizer
	if p.Manifold != nil {
		opt = nn.NewAdam(p.Cfg.ManifoldLR)
	}

	alpha, temp := 0.0, 1.0
	if p.Cfg.UseKD {
		alpha, temp = p.Cfg.Alpha, p.Cfg.Temp
	}

	// Every workspace of the joint loop is taken once, at the full batch
	// size, and re-sliced for the tail batch: the gathered batch, the query
	// hypervectors, the similarities, U, dH and dV here, the manifold FC's
	// output and weight-gradient product from an arena that the first batch
	// sizes, and E = Uᵀ·H inside the HD model.
	bs0, k, d := min(p.Cfg.BatchSize, n), p.Cfg.Classes, p.Cfg.D
	bFeatsBuf := tensor.New(bs0, featLen)
	bLabelsBuf := make([]int, bs0)
	bTeacherBuf := tensor.New(bs0, k)
	signedBuf := tensor.New(bs0, d)
	simsBuf := tensor.New(bs0, k)
	uBuf := tensor.New(bs0, k)
	var dHBuf, dVBuf *tensor.Tensor
	if p.Manifold != nil {
		dHBuf, dVBuf = tensor.New(bs0, d), tensor.New(bs0, p.Cfg.FHat)
	}
	view := func(buf *tensor.Tensor, rows int) *tensor.Tensor {
		return tensor.FromSlice(buf.Data[:rows*buf.Shape[1]], rows, buf.Shape[1])
	}
	var lshPanels *tensor.ProjPanels
	if p.Manifold == nil && p.LSH != nil {
		lshPanels = tensor.PrepackPanels(p.LSH.P)
	}
	arena := tensor.NewArena()
	grown := false

	for epoch := 1; epoch <= p.Cfg.Epochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		correct := 0
		var updateMass float64
		for start := 0; start < n; start += bs0 {
			bs := min(bs0, n-start)
			bFeats := view(bFeatsBuf, bs)
			bLabels := bLabelsBuf[:bs]
			bTeacher := view(bTeacherBuf, bs)
			for bi := 0; bi < bs; bi++ {
				src := order[start+bi]
				copy(bFeats.Row(bi), pooled.Row(src))
				bLabels[bi] = labels[src]
				if teacherLogits != nil {
					copy(bTeacher.Row(bi), teacherLogits.Row(src))
				}
			}

			// Symbolize the batch: symbolizePooled's products on the
			// workspaces, the manifold in training mode.
			arena.Reset()
			v := bFeats
			switch {
			case p.Manifold != nil:
				v = p.Manifold.ForwardPooledIn(arena, bFeats)
			case lshPanels != nil:
				v = arena.Alloc(bs, p.LSH.D)
				tensor.MatMulPanelsParallelInto(v, bFeats, lshPanels)
				tensor.SignInPlace(v.Data)
			}
			bSigned := view(signedBuf, bs)
			tensor.MatMulPanelsParallelInto(bSigned, v, projPanels)
			tensor.SignInPlace(bSigned.Data)

			// Algorithm 1 update matrix (alpha=0 degrades to MASS), and the
			// batch accuracy before the update, from one similarity pass.
			sims := view(simsBuf, bs)
			p.HD.SimilarityBatchInto(sims, bSigned)
			u := view(uBuf, bs)
			p.HD.DistillUpdateBatchInto(u, sims, bLabels, bTeacher, alpha, temp)
			for i, y := range bLabels {
				if argmax(sims.Row(i)) == y {
					correct++
				}
			}
			for _, uv := range u.Data {
				updateMass += abs64(uv)
			}

			if p.Manifold != nil {
				// Manifold gradient (Sec. V-C): the retraining objective
				// ascends Σ_k U_k·δ(C_k, H); descending its negation gives
				// dL/dH = −U·M. sign() is crossed with a straight-through
				// estimator, then the HD decoder (bind with P, dot) maps the
				// error back to the manifold output space.
				dH := view(dHBuf, bs)
				p.HD.QueryGradInto(dH, u)
				dH.Scale(-1)
				dV := view(dVBuf, bs)
				p.Proj.DecodeBatchInto(dV, dH)
				p.Manifold.ZeroGrad()
				p.Manifold.BackwardIn(arena, dV)
				opt.Step(p.Manifold.Params())
			}

			// Class hypervector update M += λ·Uᵀ·H (after the manifold
			// gradient is computed against the pre-update M).
			p.HD.ApplyUpdate(u, bSigned, p.Cfg.LR)
			if !grown {
				// The first batch measured the arena's peak; later batches
				// reuse its slabs.
				arena.Grow()
				grown = true
			}
		}
		st := hdlearn.EpochStats{
			Epoch:          epoch,
			TrainAccuracy:  float64(correct) / float64(n),
			MeanUpdateNorm: updateMass / float64(n),
		}
		report.Epochs = append(report.Epochs, st)
		if log != nil {
			fmt.Fprintf(log, "hd epoch %d/%d acc=%.4f update=%.4f\n", epoch, p.Cfg.Epochs, st.TrainAccuracy, st.MeanUpdateNorm)
		}
	}
	// Finalization: the manifold co-adapted with M during the joint loop,
	// so the class hypervectors were accumulated against stale encodings.
	// Re-bundle M from the final encoder and run a short distillation-only
	// refinement with the manifold frozen.
	if p.Manifold != nil {
		signed = p.signedOnPanels(pooled, projPanels)
		p.HD.InitBundle(signed, labels)
		// The refinement is Retrain at the pipeline's batch size: Algorithm 1
		// with KD, MASS without.
		var teacher *tensor.Tensor
		if p.Cfg.UseKD {
			teacher = teacherLogits
		}
		if _, err := p.HD.Retrain(signed, labels, teacher, hdlearn.RetrainConfig{
			Epochs: p.Cfg.Epochs/2 + 1, LR: p.Cfg.LR, Alpha: p.Cfg.Alpha, Temp: p.Cfg.Temp,
			Batch: p.Cfg.BatchSize,
		}, p.rng); err != nil {
			return nil, err
		}
	}
	// The encoder has not changed since signed was computed.
	report.FinalTrainAccuracy = p.accuracyOnSigned(signed, labels)
	return report, nil
}

// classify routes signed query hypervectors to the configured inference
// kernel: float32 cosine scoring, or — with PackedInference — popcount
// scoring against the sign-quantized model. The packed form comes from the
// model's version-keyed cache, so repeated classifications do not re-pack
// all K·D weights per call.
func (p *Pipeline) classify(signed *tensor.Tensor) []int {
	if p.Cfg.PackedInference {
		return p.HD.Packed().PredictBatch(signed)
	}
	return p.HD.PredictBatch(signed)
}

// Predict classifies raw images. When a serving engine is registered (any
// binary importing internal/engine or the public nshd package), the batch
// runs through the compiled zero-allocation path; otherwise — or if
// compilation fails for this model — it falls back to PredictDirect. Both
// paths produce identical predictions per sample.
func (p *Pipeline) Predict(images *tensor.Tensor) []int {
	if images == nil || images.Rank() == 0 || images.Shape[0] == 0 {
		return []int{}
	}
	if s := p.server(); s != nil {
		if preds, err := s.Predict(images); err == nil {
			return preds
		}
	}
	return p.PredictDirect(images)
}

// PredictDirect classifies raw images through the training-side tensor path:
// extract all-N features, symbolize, classify. It is the reference
// implementation the engine is validated against, and the fallback when no
// engine is registered.
func (p *Pipeline) PredictDirect(images *tensor.Tensor) []int {
	if images == nil || images.Rank() == 0 || images.Shape[0] == 0 {
		return []int{}
	}
	feats := p.ExtractFeatures(images)
	_, _, signed := p.Symbolize(feats, false)
	return p.classify(signed)
}

// Accuracy scores the pipeline on a labelled dataset. An empty dataset
// scores 0.
func (p *Pipeline) Accuracy(d *dataset.Dataset) float64 {
	preds := p.Predict(d.Images)
	if len(preds) == 0 {
		return 0
	}
	correct := 0
	for i, pr := range preds {
		if pr == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}

// AccuracyOnFeatures scores using precomputed extractor features, avoiding
// repeated CNN passes during sweeps.
func (p *Pipeline) AccuracyOnFeatures(feats *tensor.Tensor, labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	_, _, signed := p.Symbolize(feats, false)
	return p.accuracyOnSigned(signed, labels)
}

// accuracyOnSigned scores signed query hypervectors with the configured
// inference kernel.
func (p *Pipeline) accuracyOnSigned(signed *tensor.Tensor, labels []int) float64 {
	if p.Cfg.PackedInference {
		return p.HD.Packed().Accuracy(signed, labels)
	}
	return p.HD.Accuracy(signed, labels)
}

// QueryHVs returns the signed query hypervectors of a dataset — the
// symbolic representation used by the explainability analysis (Fig. 11).
// Served through the compiled engine when one is registered, streaming
// chunks instead of materializing the all-N feature tensor.
func (p *Pipeline) QueryHVs(images *tensor.Tensor) *tensor.Tensor {
	if images == nil || images.Rank() == 0 || images.Shape[0] == 0 {
		return tensor.New(0, p.Cfg.D)
	}
	if s := p.server(); s != nil {
		if hvs, err := s.QueryHVs(images); err == nil {
			return hvs
		}
	}
	feats := p.ExtractFeatures(images)
	_, _, signed := p.Symbolize(feats, false)
	return signed
}

// argmax is the index of x's first largest element, as tensor.ArgmaxRows
// ranks a row.
func argmax(x []float32) int {
	best, at := x[0], 0
	for i, v := range x {
		if v > best {
			best, at = v, i
		}
	}
	return at
}

func abs64(v float32) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

// Confusion returns the pipeline's confusion matrix on a labelled dataset.
func (p *Pipeline) Confusion(d *dataset.Dataset) (*metrics.Confusion, error) {
	return metrics.NewConfusion(p.Cfg.Classes, p.Predict(d.Images), d.Labels)
}
