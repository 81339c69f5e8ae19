package experiments

import (
	"fmt"

	"nshd/internal/core"
	"nshd/internal/hdlearn"
)

// AblationRetrainRow compares HD retraining rules on identical encodings.
type AblationRetrainRow struct {
	Method   string
	Accuracy float64
}

// AblationRetrain compares the MASS retraining rule (class-wise similarity
// differences, as used by NSHD) against the classic perceptron-style rule on
// the same BaselineHD encoding — the design choice inherited from
// CascadeHD [3].
func (s *Session) AblationRetrain(model string, layer int) ([]AblationRetrainRow, Table, error) {
	classes := 10
	zoo, err := s.Teacher(model, classes)
	if err != nil {
		return nil, Table{}, err
	}
	train, test := s.Data(classes)
	cfg := s.pipelineConfig(layer, classes)
	p, err := core.NewBaselineHD(zoo, cfg)
	if err != nil {
		return nil, Table{}, err
	}
	_, _, trainHVs := p.Symbolize(p.ExtractFeatures(train.Images), false)
	_, _, testHVs := p.Symbolize(p.ExtractFeatures(test.Images), false)

	run := func(name string, train func(m *hdlearn.Model)) AblationRetrainRow {
		m := hdlearn.NewModel(classes, cfg.D)
		m.InitBundle(trainHVs, s.mustLabels(10, true))
		train(m)
		return AblationRetrainRow{Method: name, Accuracy: m.Accuracy(testHVs, s.mustLabels(10, false))}
	}
	// Both rules take the samples in order (no RNG), one at a time. Without a
	// teacher Retrain returns no error.
	mcfg := hdlearn.RetrainConfig{Epochs: s.Env.HDEpochs, LR: 0.35, Batch: 1}
	rows := []AblationRetrainRow{
		run("bundle only", func(m *hdlearn.Model) {}),
		run("perceptron", func(m *hdlearn.Model) { m.TrainPerceptron(trainHVs, s.mustLabels(10, true), mcfg, nil) }),
		run("MASS", func(m *hdlearn.Model) { m.Retrain(trainHVs, s.mustLabels(10, true), nil, mcfg, nil) }),
	}
	t := Table{
		ID:     "ablation-retrain",
		Title:  fmt.Sprintf("HD retraining rule ablation on %s@%d encodings", model, layer),
		Header: []string{"Method", "Test accuracy"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Method, fmt.Sprintf("%.3f", r.Accuracy)})
	}
	return rows, t, nil
}

func (s *Session) mustLabels(classes int, train bool) []int {
	tr, te := s.Data(classes)
	if train {
		return tr.Labels
	}
	return te.Labels
}

// AblationSTERow compares manifold training through the straight-through
// estimator against a frozen (random) manifold FC.
type AblationSTERow struct {
	Variant  string
	Accuracy float64
}

// AblationSTE isolates Sec. V-C's contribution: decoding class-hypervector
// errors through the HD encoder to train the manifold layer, versus leaving
// the compression layer at its random initialization.
func (s *Session) AblationSTE(model string, layer int) ([]AblationSTERow, Table, error) {
	classes := 10
	trained, err := s.trainPipeline(core.New, model, layer, classes, nil)
	if err != nil {
		return nil, Table{}, err
	}
	frozen, err := s.trainPipeline(core.New, model, layer, classes, func(c *core.Config) {
		c.ManifoldLR = 1e-12 // effectively frozen; 0 is rejected by Adam's step being a no-op anyway
	})
	if err != nil {
		return nil, Table{}, err
	}
	rows := []AblationSTERow{
		{Variant: "trained manifold (STE decode)", Accuracy: trained},
		{Variant: "frozen random manifold", Accuracy: frozen},
	}
	t := Table{
		ID:     "ablation-ste",
		Title:  fmt.Sprintf("Manifold training ablation on %s@%d", model, layer),
		Header: []string{"Variant", "Test accuracy"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Variant, fmt.Sprintf("%.3f", r.Accuracy)})
	}
	return rows, t, nil
}

// VanillaClaim reports the Sec. I observation: the state-of-the-art
// non-linear HD encoding's accuracy on raw pixels versus the CNN's, i.e. the
// gap that motivates neuro-symbolic integration.
func (s *Session) VanillaClaim() (Table, error) {
	rows, _, err := s.Fig7()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "vanilla-claim",
		Title:  "Sec. I motivating gap: raw-pixel HD vs CNN",
		Header: []string{"Dataset", "VanillaHD", "Best CNN"},
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if seen[r.Classes] {
			continue
		}
		best := r.CNNAcc
		for _, rr := range rows {
			if rr.Classes == r.Classes && rr.CNNAcc > best {
				best = rr.CNNAcc
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("synthcifar%d", r.Classes),
			fmt.Sprintf("%.3f", r.VanillaAcc),
			fmt.Sprintf("%.3f", best),
		})
		seen[r.Classes] = true
	}
	t.Notes = append(t.Notes, "paper reports 39.88%/19.7% for non-linear encoding on CIFAR-10/100")
	return t, nil
}
