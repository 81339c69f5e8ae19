package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/engine"
	"nshd/internal/hdlearn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// adamScalar is nn.Adam as it stood before Step was split over the pool: one
// serial loop per parameter.
type adamScalar struct {
	lr   float64
	t    int
	m, v map[*nn.Param][]float32
}

func (o *adamScalar) step(params []*nn.Param) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	o.t++
	bc1 := 1 - math.Pow(beta1, float64(o.t))
	bc2 := 1 - math.Pow(beta2, float64(o.t))
	for _, p := range params {
		if o.m[p] == nil {
			o.m[p], o.v[p] = make([]float32, p.W.Len()), make([]float32, p.W.Len())
		}
		m, v := o.m[p], o.v[p]
		b1, b2 := float32(beta1), float32(beta2)
		for i := range p.W.Data {
			g := p.Grad.Data[i]
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			mhat := float64(m[i]) / bc1
			vhat := float64(v[i]) / bc2
			p.W.Data[i] -= float32(o.lr * mhat / (math.Sqrt(vhat) + eps))
		}
	}
}

// refManifold is the manifold learner as the parent revision ran it: pool →
// flatten → FC as three layers with a full backward pass, the pool inside the
// forward of every batch. Its FC starts from the pipeline's weights.
type refManifold struct {
	pool *nn.MaxPool2D
	flat *nn.Flatten
	fc   *nn.Linear
}

func newRefManifold(p *core.Pipeline) *refManifold {
	if p.Manifold == nil {
		return nil
	}
	params := p.Manifold.Params()
	m := &refManifold{flat: nn.NewFlatten(), fc: nn.NewLinear(tensor.NewRNG(0), p.Manifold.PooledF, p.Manifold.FHat, true)}
	if p.FeatShape[1] >= 2 && p.FeatShape[2] >= 2 {
		m.pool = nn.NewMaxPool2D(2)
	}
	copy(m.fc.Weight.W.Data, params[0].W.Data)
	copy(m.fc.Bias.W.Data, params[1].W.Data)
	return m
}

func (m *refManifold) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if m.pool != nil {
		x = m.pool.Forward(x, train)
	}
	return m.fc.Forward(m.flat.Forward(x, train), train)
}

func (m *refManifold) backward(grad *tensor.Tensor) *tensor.Tensor {
	g := m.flat.Backward(m.fc.Backward(grad))
	if m.pool != nil {
		g = m.pool.Backward(g)
	}
	return g
}

// trainOnFeaturesReference is Pipeline.TrainOnFeatures as it stood at the
// parent revision, kept as the oracle of TestTrainOnFeaturesMatchesReference:
// every batch gathers raw [bs, C, H, W] features and symbolizes them from
// the pool on, the manifold backward computes (and drops) the input gradient,
// Adam steps serially, and the final accuracy re-symbolizes the features.
func trainOnFeaturesReference(p *core.Pipeline, ml *refManifold, feats *tensor.Tensor, labels []int, teacherLogits *tensor.Tensor) *core.TrainReport {
	symbolize := func(x *tensor.Tensor, train bool) *tensor.Tensor {
		var v *tensor.Tensor
		switch {
		case ml != nil:
			v = ml.forward(x, train)
		case p.LSH != nil:
			_, v = p.LSH.EncodeBatch(x.Reshape(x.Shape[0], -1))
		default:
			v = x.Reshape(x.Shape[0], -1)
		}
		_, signed := p.Proj.EncodeBatch(v)
		return signed
	}
	cfg := p.Cfg
	report := &core.TrainReport{}
	if teacherLogits != nil {
		report.TeacherTrainAccuracy = nn.Accuracy(teacherLogits, labels)
	}
	p.HD.InitBundle(symbolize(feats, false), labels)

	n := len(labels)
	featLen := feats.Len() / n
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	opt := &adamScalar{lr: cfg.ManifoldLR, m: map[*nn.Param][]float32{}, v: map[*nn.Param][]float32{}}
	alpha, temp := 0.0, 1.0
	if cfg.UseKD {
		alpha, temp = cfg.Alpha, cfg.Temp
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		p.TrainRNG().Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		correct := 0
		var updateMass float64
		for start := 0; start < n; start += cfg.BatchSize {
			bs := min(cfg.BatchSize, n-start)
			bFeats := tensor.New(append([]int{bs}, p.FeatShape...)...)
			bLabels := make([]int, bs)
			bTeacher := tensor.New(bs, cfg.Classes)
			for bi := 0; bi < bs; bi++ {
				src := order[start+bi]
				copy(bFeats.Data[bi*featLen:(bi+1)*featLen], feats.Data[src*featLen:(src+1)*featLen])
				bLabels[bi] = labels[src]
				if teacherLogits != nil {
					copy(bTeacher.Row(bi), teacherLogits.Row(src))
				}
			}
			bSigned := symbolize(bFeats, ml != nil)
			u := p.HD.DistillUpdateBatch(bSigned, bLabels, bTeacher, alpha, temp)
			for i, pr := range tensor.ArgmaxRows(p.HD.SimilarityBatch(bSigned)) {
				if pr == bLabels[i] {
					correct++
				}
			}
			for _, uv := range u.Data {
				updateMass += math.Abs(float64(uv))
			}
			if ml != nil {
				dH := p.HD.QueryGrad(u)
				dH.Scale(-1)
				dV := p.Proj.DecodeBatch(dH)
				for _, prm := range ml.fc.Params() {
					prm.ZeroGrad()
				}
				ml.backward(dV)
				opt.step(ml.fc.Params())
			}
			p.HD.ApplyUpdate(u, bSigned, cfg.LR)
		}
		report.Epochs = append(report.Epochs, hdlearn.EpochStats{
			Epoch:          epoch,
			TrainAccuracy:  float64(correct) / float64(n),
			MeanUpdateNorm: updateMass / float64(n),
		})
	}
	if ml != nil {
		finalSigned := symbolize(feats, false)
		p.HD.InitBundle(finalSigned, labels)
		refine := cfg.Epochs/2 + 1
		if cfg.UseKD {
			if _, err := p.HD.TrainDistillBatch(finalSigned, labels, teacherLogits, hdlearn.DistillConfig{
				Epochs: refine, LR: cfg.LR, Alpha: cfg.Alpha, Temp: cfg.Temp, Shuffle: true, Batch: cfg.BatchSize,
			}, p.TrainRNG()); err != nil {
				panic(err)
			}
		} else {
			p.HD.TrainMASSBatch(finalSigned, labels, hdlearn.MASSConfig{
				Epochs: refine, LR: cfg.LR, Shuffle: true, Batch: cfg.BatchSize,
			}, p.TrainRNG())
		}
	}
	report.FinalTrainAccuracy = p.HD.Accuracy(symbolize(feats, false), labels)
	return report
}

// featZoo is a one-unit zoo model whose cut at 0 yields [6, size, size]
// features: size 4 gives the manifold a map to pool, size 1 one it cannot.
func featZoo(size, classes int) *cnn.Model {
	rng := tensor.NewRNG(3)
	m := &cnn.Model{Name: "featzoo", InShape: []int{3, size, size}, Classes: classes}
	m.Units = []cnn.Unit{{Index: 0, Label: "conv0", Layers: []nn.Layer{
		nn.NewConv2D(rng, 3, 6, 3, 1, 1, true), nn.NewReLU()}}}
	m.Head = []nn.Layer{nn.NewFlatten(), nn.NewLinear(rng, 6*size*size, classes, true)}
	return m.Finish()
}

func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestTrainOnFeaturesMatchesReference requires the hoisted training loop —
// features pooled once, batches gathered from the pooled matrix, a
// parameter-only manifold backward, Adam split over the pool, the final
// accuracy from the last symbolization — to leave every bit of the trained
// model where the parent's loop left it: the class matrix, the manifold FC,
// the report and the compiled engine's model version.
func TestTrainOnFeaturesMatchesReference(t *testing.T) {
	const classes, batch = 4, 8
	type variant struct {
		name     string
		manifold bool
		lsh      int
	}
	for _, size := range []int{4, 1} {
		for _, v := range []variant{{"manifold", true, 0}, {"lsh", false, 5}, {"direct", false, 0}} {
			for _, kd := range []bool{true, false} {
				for _, n := range []int{1, batch - 1, batch, 2*batch + 3} {
					name := fmt.Sprintf("%dx%d/%s/kd=%v/n=%d", size, size, v.name, kd, n)
					cfg := core.DefaultConfig(0, classes)
					cfg.D, cfg.FHat, cfg.Epochs, cfg.BatchSize, cfg.Seed = 192, 5, 3, batch, 17
					cfg.UseManifold, cfg.LSHDim, cfg.UseKD = v.manifold, v.lsh, kd
					got, err := core.New(featZoo(size, classes), cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := core.New(featZoo(size, classes), cfg)

					feats := tensor.New(n, 6, size, size)
					tensor.NewRNG(int64(n)).FillNormal(feats, 0, 1)
					labels := make([]int, n)
					for i := range labels {
						labels[i] = (i*7 + 1) % classes
					}
					var logits *tensor.Tensor
					if kd {
						logits = tensor.New(n, classes)
						tensor.NewRNG(int64(100+n)).FillNormal(logits, 0, 2)
					}

					ml := newRefManifold(want)
					wantReport := trainOnFeaturesReference(want, ml, feats, labels, logits)
					gotReport, err := got.TrainOnFeatures(feats, labels, logits, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if i := sameBits(got.HD.M.Data, want.HD.M.Data); i >= 0 {
						t.Fatalf("%s: class matrix differs at %d: %v vs reference %v", name, i, got.HD.M.Data[i], want.HD.M.Data[i])
					}
					if ml != nil {
						for pi, prm := range got.Manifold.Params() {
							ref := ml.fc.Params()[pi]
							if i := sameBits(prm.W.Data, ref.W.Data); i >= 0 {
								t.Fatalf("%s: manifold %s differs at %d: %v vs reference %v", name, prm.Name, i, prm.W.Data[i], ref.W.Data[i])
							}
							copy(want.Manifold.Params()[pi].W.Data, ref.W.Data)
						}
					}
					if !reflect.DeepEqual(gotReport, wantReport) {
						t.Fatalf("%s: report %+v, reference %+v", name, gotReport, wantReport)
					}
					ge, err := engine.Compile(got)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					we, err := engine.Compile(want)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ge.ModelVersion() != we.ModelVersion() {
						t.Fatalf("%s: model version %016x, reference %016x", name, ge.ModelVersion(), we.ModelVersion())
					}
				}
			}
		}
	}
}

// TestTeacherLogitsFromFeatures pins what Pipeline.Train's teacher pass
// rests on: Cut and Rest partition the full network's own layer objects, and
// running Rest on the extractor's features is nn.PredictLogits on the full
// network from the images, bit for bit, at any batch size.
func TestTeacherLogitsFromFeatures(t *testing.T) {
	const n, classes = 9, 5
	for _, name := range cnn.Names() {
		zoo, err := cnn.Build(name, tensor.NewRNG(5), classes)
		if err != nil {
			t.Fatal(err)
		}
		images := tensor.New(append([]int{n}, zoo.InShape...)...)
		tensor.NewRNG(6).FillNormal(images, 0, 1)
		idx := zoo.Indices()
		for _, cut := range []int{idx[len(idx)/3], idx[len(idx)-2]} {
			prefix, err := zoo.Cut(cut)
			if err != nil {
				t.Fatal(err)
			}
			rest, err := zoo.Rest(cut)
			if err != nil {
				t.Fatal(err)
			}
			full := zoo.Full().Layers
			if len(prefix.Layers)+len(rest.Layers) != len(full) {
				t.Fatalf("%s@%d: %d + %d layers, full network has %d", name, cut, len(prefix.Layers), len(rest.Layers), len(full))
			}
			for i, l := range append(append([]nn.Layer(nil), prefix.Layers...), rest.Layers...) {
				if l != full[i] {
					t.Fatalf("%s@%d: layer %d is %s, full network has %s", name, cut, i, l.Name(), full[i].Name())
				}
			}
			for _, bs := range []int{1, 7, 32} {
				want := nn.PredictLogits(zoo.Full(), images, bs)
				// The extractor in batches of bs, as Pipeline.ExtractFeatures runs it.
				feats := tensor.New(append([]int{n}, prefix.OutShape(zoo.InShape)...)...)
				imgLen, featLen := images.Len()/n, feats.Len()/n
				for lo := 0; lo < n; lo += bs {
					hi := min(lo+bs, n)
					bx := tensor.FromSlice(images.Data[lo*imgLen:hi*imgLen], append([]int{hi - lo}, zoo.InShape...)...)
					copy(feats.Data[lo*featLen:hi*featLen], prefix.Forward(bx, false).Data)
				}
				got := nn.PredictLogits(rest, feats, bs)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("%s@%d bs=%d: logit %d = %v, full network %v", name, cut, bs, i, got.Data[i], want.Data[i])
				}
			}
		}
		if _, err := zoo.Rest(-1); err == nil {
			t.Fatalf("%s: Rest(-1) did not fail", name)
		}
	}
}

// trainWorkload builds the `train` benchmark workload's HD side without the
// pretraining: vgg16 cut 8 at random weights, 512 images of 32×32, 10
// classes, D = 3000, F̂ = 100, batch 32, 10 epochs, KD on.
func trainWorkload(b *testing.B) (zoo *cnn.Model, cfg core.Config, images *tensor.Tensor, labels []int) {
	const n, classes = 512, 10
	zoo, err := cnn.Build("vgg16", tensor.NewRNG(72), classes)
	if err != nil {
		b.Fatal(err)
	}
	images = tensor.New(n, 3, 32, 32)
	tensor.NewRNG(9).FillNormal(images, 0, 1)
	labels = make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	cfg = core.DefaultConfig(8, classes)
	cfg.Seed = 73
	return zoo, cfg, images, labels
}

// epochClock timestamps the lines TrainOnFeatures logs, one per joint epoch.
type epochClock struct{ at []time.Time }

func (c *epochClock) Write(p []byte) (int, error) {
	c.at = append(c.at, time.Now())
	return len(p), nil
}

// BenchmarkTrainOnFeatures times the HD retraining of the `train` workload
// on extracted features: one op is the initial bundle, ten joint epochs and
// the refinement; ms/epoch is the mean gap between two joint epochs' log
// lines (the benchmark's hdlearn.epoch_ms).
func BenchmarkTrainOnFeatures(b *testing.B) {
	zoo, cfg, images, labels := trainWorkload(b)
	p, err := core.New(zoo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	feats := p.ExtractFeatures(images)
	logits := nn.PredictLogits(zoo.Full(), images, cfg.BatchSize)
	var epochs time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, _ = core.New(zoo, cfg)
		clock := &epochClock{}
		b.StartTimer()
		if _, err := p.TrainOnFeatures(feats, labels, logits, clock); err != nil {
			b.Fatal(err)
		}
		epochs += clock.at[len(clock.at)-1].Sub(clock.at[0])
	}
	b.ReportMetric(epochs.Seconds()*1e3/float64(b.N*(cfg.Epochs-1)), "ms/epoch")
}

// BenchmarkTeacherLogits times the teacher pass of Pipeline.Train both ways:
// resumed from the extractor's features (what Train runs) and from the images
// through the full network (what it ran before); the difference is the
// prefix's share.
func BenchmarkTeacherLogits(b *testing.B) {
	zoo, cfg, images, _ := trainWorkload(b)
	p, err := core.New(zoo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	feats := p.ExtractFeatures(images)
	rest, err := zoo.Rest(cfg.CutLayer)
	if err != nil {
		b.Fatal(err)
	}
	for _, side := range []struct {
		name  string
		model *nn.Sequential
		in    *tensor.Tensor
	}{{"from-features", rest, feats}, {"from-images", zoo.Full(), images}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nn.PredictLogits(side.model, side.in, cfg.BatchSize)
			}
		})
	}
}
