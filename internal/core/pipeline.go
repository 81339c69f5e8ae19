package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"nshd/internal/cnn"
	"nshd/internal/dataset"
	"nshd/internal/hdc"
	"nshd/internal/hdlearn"
	"nshd/internal/manifold"
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
	// LSH holds BaselineHD's random hyperplanes ([F, min(F, lshWidth)]
	// bipolar); nil exactly when Manifold is not.
	LSH *hdc.Projection
	// Proj is the binary random projection Φ_P.
	Proj *hdc.Projection
	// HD holds the class hypervectors.
	HD *hdlearn.Model

	rng *tensor.RNG
}

// lshWidth caps BaselineHD's LSH width: min(F, lshWidth) hyperplanes.
const lshWidth = 1024

// New assembles an NSHD pipeline over a (pretrained) zoo model; with
// Cfg.UseManifold off, the LSH reduction stands in for the manifold.
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
	if cfg.UseManifold {
		ml, err := manifold.New(rng.Fork(), featShape, cfg.FHat)
		if err != nil {
			return nil, err
		}
		if err := ml.CheckClasses(cfg.Classes); err != nil {
			return nil, err
		}
		p.Manifold = ml
		encF = cfg.FHat
	} else {
		// BaselineHD's reduction [9]: sign projections onto random
		// hyperplanes (bipolar, so the hash is add/sub only).
		l := min(encF, lshWidth)
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
// signed bipolar, via the manifold (or BaselineHD's LSH) and the projection.
// Set train to cache manifold intermediates for a following backward pass.
func (p *Pipeline) Symbolize(feats *tensor.Tensor, train bool) (v, raw, signed *tensor.Tensor) {
	return p.symbolizePooled(p.pooled(feats), train)
}

// pooled is the parameter-free front of Symbolize, [N, C, H, W] → [N, F]: the
// manifold's max-pool and flatten, or just the flatten in front of the LSH.
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

// reduce is Symbolize's step between pooling and projection: the manifold
// or BaselineHD's LSH.
func (p *Pipeline) reduce(pooled *tensor.Tensor, train bool) *tensor.Tensor {
	switch {
	case p.Manifold == nil:
		_, v := p.LSH.EncodeBatch(pooled)
		return v
	case train:
		return p.Manifold.ForwardPooled(tensor.NewArena(), pooled)
	}
	return p.Manifold.InferPooled(pooled)
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
//     matrix U, bundle λ·Uᵀ·H into the class hypervectors, decode the
//     query-side error through the HD encoder (straight-through estimator
//     across sign) and backpropagate it into the manifold FC layer — or,
//     without the manifold, retrain on the fixed LSH encodings
//     (TrainOnFeatures).
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
//
// Without the manifold (BaselineHD) the encoder has nothing to learn: the
// LSH-encoded queries are bundled once and retrained with hdlearn.Retrain at
// Cfg.BatchSize — MASS, or Algorithm 1 with the teacher when Cfg.UseKD is
// set — as VanillaHD trains.
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

	var teacher *tensor.Tensor
	if p.Cfg.UseKD {
		teacher = teacherLogits
	}
	retrain := func(epochs int) ([]hdlearn.EpochStats, error) {
		return p.HD.Retrain(signed, labels, teacher, hdlearn.RetrainConfig{
			Epochs: epochs, LR: p.Cfg.LR, Alpha: p.Cfg.Alpha, Temp: p.Cfg.Temp,
			Batch: p.Cfg.BatchSize,
		}, p.rng)
	}
	if p.Manifold == nil {
		hist, err := retrain(p.Cfg.Epochs)
		if err != nil {
			return nil, err
		}
		for _, st := range hist {
			p.logEpoch(log, st)
		}
		report.Epochs = hist
	} else {
		report.Epochs = p.jointLoop(pooled, labels, teacherLogits, projPanels, log)
		// Finalization: the manifold co-adapted with M during the joint
		// loop, so the class hypervectors were accumulated against stale
		// encodings. Re-bundle M from the final encoder and run a short
		// refinement with the manifold frozen.
		signed = p.signedOnPanels(pooled, projPanels)
		p.HD.InitBundle(signed, labels)
		if _, err := retrain(p.Cfg.Epochs/2 + 1); err != nil {
			return nil, err
		}
	}
	// The encoder has not changed since signed was computed.
	report.FinalTrainAccuracy = p.accuracyOnSigned(signed, labels)
	return report, nil
}

// logEpoch writes one retraining epoch's line to log, if any.
func (p *Pipeline) logEpoch(log io.Writer, st hdlearn.EpochStats) {
	if log != nil {
		fmt.Fprintf(log, "hd epoch %d/%d acc=%.4f update=%.4f\n", st.Epoch, p.Cfg.Epochs, st.TrainAccuracy, st.MeanUpdateNorm)
	}
}

// jointLoop is Algorithm 1 with the manifold in the loop: Cfg.Epochs epochs
// over the pooled features in shuffled batches, each updating the class
// hypervectors and, through the HD decoder, the manifold FC. It returns the
// epochs' stats and logs each as it ends.
func (p *Pipeline) jointLoop(pooled *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor, projPanels *tensor.ProjPanels, log io.Writer) []hdlearn.EpochStats {
	n := len(labels)
	featLen := pooled.Shape[1]
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	opt := nn.NewAdam(p.Cfg.ManifoldLR)

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
	// The query rows are SignInPlace's, exactly ±1: the float64 sum of D
	// squares is D exactly and math.Sqrt rounds correctly, so √D is the norm
	// hdc.Hypervector.Norm would compute for every row.
	rowNorms := make([]float64, bs0)
	for i := range rowNorms {
		rowNorms[i] = math.Sqrt(float64(d))
	}
	uBuf := tensor.New(bs0, k)
	dHBuf, dVBuf := tensor.New(bs0, d), tensor.New(bs0, p.Cfg.FHat)
	view := func(buf *tensor.Tensor, rows int) *tensor.Tensor {
		return tensor.FromSlice(buf.Data[:rows*buf.Shape[1]], rows, buf.Shape[1])
	}
	arena := tensor.NewArena()
	grown := false

	var history []hdlearn.EpochStats
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
			v := p.Manifold.ForwardPooled(arena, bFeats)
			bSigned := view(signedBuf, bs)
			tensor.MatMulPanelsParallelInto(bSigned, v, projPanels)
			tensor.SignInPlace(bSigned.Data)

			// Algorithm 1 update matrix (alpha=0 degrades to MASS), and the
			// batch accuracy before the update, from one similarity pass.
			sims := view(simsBuf, bs)
			p.HD.SimilarityBatchInto(sims, bSigned, rowNorms[:bs]...)
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

			// Manifold gradient (Sec. V-C): the retraining objective ascends
			// Σ_k U_k·δ(C_k, H); descending its negation gives dL/dH = −U·M.
			// sign() is crossed with a straight-through estimator, then the
			// HD decoder (bind with P, dot) maps the error back to the
			// manifold output space.
			dH := view(dHBuf, bs)
			p.HD.QueryGradInto(dH, u, arena.Floats(tensor.GemmScratch()))
			dH.Scale(-1)
			dV := view(dVBuf, bs)
			p.Proj.DecodeBatchInto(dV, dH)
			p.Manifold.ZeroGrad()
			p.Manifold.Backward(arena, dV)
			opt.Step(p.Manifold.Params())

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
		history = append(history, st)
		p.logEpoch(log, st)
	}
	return history
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

// PredictDirect classifies raw images through the training-side tensor path:
// extract all-N features, symbolize, classify. It is the pipeline's one
// prediction path and the reference the serving engine (internal/engine,
// compiled explicitly) is validated against.
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
	preds := p.PredictDirect(d.Images)
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
func (p *Pipeline) QueryHVs(images *tensor.Tensor) *tensor.Tensor {
	if images == nil || images.Rank() == 0 || images.Shape[0] == 0 {
		return tensor.New(0, p.Cfg.D)
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
