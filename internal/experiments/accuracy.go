package experiments

import (
	"fmt"

	"nshd/internal/baseline"
	"nshd/internal/cnn"
	"nshd/internal/core"
	"nshd/internal/hwsim"
	"nshd/internal/nn"
	"nshd/internal/quant"
)

// pipelineConfig builds the session's standard NSHD config for a cut layer.
func (s *Session) pipelineConfig(layer, classes int) core.Config {
	cfg := core.DefaultConfig(layer, classes)
	cfg.D = s.Env.D
	cfg.FHat = s.Env.FHat
	cfg.Epochs = s.Env.HDEpochs
	cfg.Seed = s.Env.Seed
	return cfg
}

// trainPipeline assembles a pipeline variant over the pretrained teacher
// with build (core.New or core.NewBaselineHD), trains it and returns its
// test accuracy.
func (s *Session) trainPipeline(build func(*cnn.Model, core.Config) (*core.Pipeline, error), model string, layer, classes int, mutate func(*core.Config)) (float64, error) {
	zoo, err := s.Teacher(model, classes)
	if err != nil {
		return 0, err
	}
	cfg := s.pipelineConfig(layer, classes)
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := build(zoo, cfg)
	if err != nil {
		return 0, err
	}
	train, test := s.Data(classes)
	if _, err := p.Train(train, s.Env.Log); err != nil {
		return 0, err
	}
	return p.Accuracy(test), nil
}

// Fig7Row is one model/dataset group of the accuracy comparison.
type Fig7Row struct {
	Model       string
	Layer       int
	Classes     int
	VanillaAcc  float64
	BaselineAcc float64
	NSHDAcc     float64
	CNNAcc      float64
}

// Fig7 reproduces Fig. 7: accuracy of VanillaHD (non-linear encoding on raw
// pixels), BaselineHD (cut-CNN features, no manifold/KD), NSHD and the
// original CNN.
func (s *Session) Fig7() ([]Fig7Row, Table, error) {
	var rows []Fig7Row
	t := Table{
		ID:     "fig7",
		Title:  "Accuracy comparison: VanillaHD / BaselineHD / NSHD / CNN",
		Header: []string{"Model", "Layer", "Dataset", "VanillaHD", "BaselineHD", "NSHD", "CNN"},
	}
	for _, classes := range s.Env.classesList() {
		train, test := s.Data(classes)
		// VanillaHD is model-independent: train once per dataset.
		vcfg := baseline.DefaultVanillaConfig()
		vcfg.D = s.Env.D
		vcfg.Epochs = s.Env.HDEpochs
		vcfg.Seed = s.Env.Seed
		van, err := baseline.NewVanillaHD(train, vcfg)
		if err != nil {
			return nil, t, err
		}
		if _, err := van.Train(train, nil); err != nil {
			return nil, t, err
		}
		vanAcc := van.Accuracy(test)
		s.logf("fig7: vanillahd/%d acc=%.3f", classes, vanAcc)

		for _, model := range s.Env.Models {
			layer := BestLayer(model)
			nshdAcc, err := s.trainPipeline(core.New, model, layer, classes, nil)
			if err != nil {
				return nil, t, err
			}
			baseAcc, err := s.trainPipeline(core.NewBaselineHD, model, layer, classes, nil)
			if err != nil {
				return nil, t, err
			}
			cnnAcc, err := s.CNNTestAccuracy(model, classes)
			if err != nil {
				return nil, t, err
			}
			row := Fig7Row{
				Model: model, Layer: layer, Classes: classes,
				VanillaAcc: vanAcc, BaselineAcc: baseAcc, NSHDAcc: nshdAcc, CNNAcc: cnnAcc,
			}
			rows = append(rows, row)
			t.Rows = append(t.Rows, []string{
				model, fmt.Sprintf("%d", layer), fmt.Sprintf("synthcifar%d", classes),
				fmt.Sprintf("%.3f", vanAcc), fmt.Sprintf("%.3f", baseAcc),
				fmt.Sprintf("%.3f", nshdAcc), fmt.Sprintf("%.3f", cnnAcc),
			})
			s.logf("fig7: %s@%d/%d baseline=%.3f nshd=%.3f cnn=%.3f",
				model, layer, classes, baseAcc, nshdAcc, cnnAcc)
		}
	}
	t.Notes = append(t.Notes, "paper: VanillaHD fails on images; NSHD matches or beats the CNN with sufficient layers and beats BaselineHD throughout")
	return rows, t, nil
}

// Fig8Row compares NSHD with and without knowledge distillation.
type Fig8Row struct {
	Model   string
	Layer   int
	Classes int
	NoKDAcc float64
	KDAcc   float64
	CNNAcc  float64
	GainPct float64
}

// Fig8 reproduces Fig. 8: the impact of knowledge distillation — (a) across
// EfficientNet-B0's cut layers, (b) across the other models at their second
// energy layer.
func (s *Session) Fig8() ([]Fig8Row, Table, error) {
	var rows []Fig8Row
	t := Table{
		ID:     "fig8",
		Title:  "Impact of knowledge distillation on NSHD accuracy",
		Header: []string{"Model", "Layer", "Dataset", "NSHD no-KD", "NSHD KD", "CNN", "KD gain"},
	}
	classes := 10
	type target struct {
		model string
		layer int
	}
	var targets []target
	// (a) the per-layer sweep on EfficientNet-B0.
	for _, l := range []int{5, 6, 7, 8} {
		targets = append(targets, target{"effnetb0", l})
	}
	// (b) the other models at their second energy layer.
	for _, m := range s.Env.Models {
		if m == "effnetb0" {
			continue
		}
		targets = append(targets, target{m, EnergyLayers(m)[1]})
	}
	for _, tg := range targets {
		kdAcc, err := s.trainPipeline(core.New, tg.model, tg.layer, classes, nil)
		if err != nil {
			return nil, t, err
		}
		noKD, err := s.trainPipeline(core.New, tg.model, tg.layer, classes, func(c *core.Config) {
			c.UseKD = false
		})
		if err != nil {
			return nil, t, err
		}
		cnnAcc, err := s.CNNTestAccuracy(tg.model, classes)
		if err != nil {
			return nil, t, err
		}
		row := Fig8Row{
			Model: tg.model, Layer: tg.layer, Classes: classes,
			NoKDAcc: noKD, KDAcc: kdAcc, CNNAcc: cnnAcc,
			GainPct: 100 * (kdAcc - noKD),
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			tg.model, fmt.Sprintf("%d", tg.layer), fmt.Sprintf("synthcifar%d", classes),
			fmt.Sprintf("%.3f", noKD), fmt.Sprintf("%.3f", kdAcc),
			fmt.Sprintf("%.3f", cnnAcc), fmt.Sprintf("%+.1fpp", row.GainPct),
		})
		s.logf("fig8: %s@%d noKD=%.3f KD=%.3f", tg.model, tg.layer, noKD, kdAcc)
	}
	t.Notes = append(t.Notes, "paper: KD fills the accuracy gap left by cutting at earlier layers")
	return rows, t, nil
}

// Fig9Cell is one accuracy of the hyperparameter grid.
type Fig9Cell struct {
	Alpha, Temp float64
	Accuracy    float64
}

// Fig9 reproduces Fig. 9: the KD hyperparameter search grid (α × T) for one
// model/layer, sharing extracted features and teacher logits across all
// cells. The α=0 row is temperature-independent by construction, exactly as
// in the paper's grid.
func (s *Session) Fig9(model string, layer int) ([]Fig9Cell, Table, error) {
	classes := 10
	zoo, err := s.Teacher(model, classes)
	if err != nil {
		return nil, Table{}, err
	}
	train, test := s.Data(classes)

	baseCfg := s.pipelineConfig(layer, classes)
	probe, err := core.New(zoo, baseCfg)
	if err != nil {
		return nil, Table{}, err
	}
	trainFeats := probe.ExtractFeatures(train.Images)
	teacherLogits := nn.PredictLogits(zoo.Full(), train.Images, 32)
	testFeats := probe.ExtractFeatures(test.Images)

	// Cap per-cell retraining: the grid has 60 cells and each shares the
	// extracted features, so a short schedule per cell keeps the sweep
	// tractable while preserving the surface's shape.
	if baseCfg.Epochs > 4 {
		baseCfg.Epochs = 4
	}
	alphas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	temps := []float64{12, 13, 14, 15, 16, 17}
	var cells []Fig9Cell
	t := Table{
		ID:    "fig9",
		Title: fmt.Sprintf("KD hyperparameter grid for %s@%d (test accuracy)", model, layer),
		Header: append([]string{"alpha\\T"}, func() []string {
			var h []string
			for _, tt := range temps {
				h = append(h, fmt.Sprintf("%.0f", tt))
			}
			return h
		}()...),
	}
	for _, a := range alphas {
		rowCells := []string{fmt.Sprintf("%.1f", a)}
		for _, tt := range temps {
			cfg := baseCfg
			cfg.Alpha, cfg.Temp = a, tt
			p, err := core.New(zoo, cfg)
			if err != nil {
				return nil, t, err
			}
			if _, err := p.TrainOnFeatures(trainFeats, train.Labels, teacherLogits, nil); err != nil {
				return nil, t, err
			}
			acc := p.AccuracyOnFeatures(testFeats, test.Labels)
			cells = append(cells, Fig9Cell{Alpha: a, Temp: tt, Accuracy: acc})
			rowCells = append(rowCells, fmt.Sprintf("%.4f", acc))
		}
		t.Rows = append(t.Rows, rowCells)
	}
	t.Notes = append(t.Notes, "paper (EffNet-b7@7): KD boosts accuracy by up to 7.39% over alpha=0; best cells around alpha 0.6-0.7, T 14-16")
	return cells, t, nil
}

// Fig10Row is one point of the dimension/efficiency/accuracy tradeoff.
type Fig10Row struct {
	Model    string
	D        int
	Accuracy float64
	QuantAcc float64
	FPS      float64
	HDBytes  int64
}

// Fig10 reproduces Fig. 10: accuracy and FPGA efficiency across hypervector
// dimensions, including the int8-quantized inference path the DPU deploys.
func (s *Session) Fig10(model string) ([]Fig10Row, Table, error) {
	classes := 10
	layer := BestLayer(model)
	zoo, err := s.Teacher(model, classes)
	if err != nil {
		return nil, Table{}, err
	}
	train, test := s.Data(classes)
	dpu := hwsim.DefaultDPU()

	baseCfg := s.pipelineConfig(layer, classes)
	probe, err := core.New(zoo, baseCfg)
	if err != nil {
		return nil, Table{}, err
	}
	trainFeats := probe.ExtractFeatures(train.Images)
	teacherLogits := nn.PredictLogits(zoo.Full(), train.Images, 32)
	testFeats := probe.ExtractFeatures(test.Images)

	var rows []Fig10Row
	t := Table{
		ID:     "fig10",
		Title:  fmt.Sprintf("Dimension vs efficiency/accuracy tradeoff for %s@%d", model, layer),
		Header: []string{"D", "Accuracy", "int8 accuracy", "FPS", "HD params"},
	}
	for _, d := range []int{1000, 3000, 10000} {
		cfg := baseCfg
		cfg.D = d
		p, err := core.New(zoo, cfg)
		if err != nil {
			return nil, t, err
		}
		if _, err := p.TrainOnFeatures(trainFeats, train.Labels, teacherLogits, nil); err != nil {
			return nil, t, err
		}
		acc := p.AccuracyOnFeatures(testFeats, test.Labels)

		// Quantized path: int8 class hypervectors, integer similarity.
		q := quant.QuantizeHD(p.HD)
		_, _, signed := p.Symbolize(testFeats, false)
		qPreds, err := q.PredictBatch(signed)
		if err != nil {
			return nil, t, err
		}
		qCorrect := 0
		for i, pr := range qPreds {
			if pr == test.Labels[i] {
				qCorrect++
			}
		}
		qAcc := float64(qCorrect) / float64(len(qPreds))

		c := p.Costs()
		hdBytes := c.ManifoldBytes + c.ProjectionBytes + c.ClassHVBytes
		row := Fig10Row{
			Model: model, D: d,
			Accuracy: acc, QuantAcc: qAcc,
			FPS:     dpu.NSHDFPS(c),
			HDBytes: hdBytes,
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d), fmt.Sprintf("%.3f", acc), fmt.Sprintf("%.3f", qAcc),
			fmt.Sprintf("%.0f", row.FPS), fmtBytes(hdBytes),
		})
		s.logf("fig10: %s D=%d acc=%.3f int8=%.3f fps=%.0f", model, d, acc, qAcc, row.FPS)
	}
	t.Notes = append(t.Notes,
		"paper: D=3000 suffices (70% parameter saving vs 10000); D=1000 loses ~1.64% accuracy on average",
		"paper: Vitis AI int8 quantization has very minor accuracy impact")
	return rows, t, nil
}
