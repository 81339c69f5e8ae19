// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VII) from this repository's implementation. Each
// experiment returns typed rows plus a renderable Table; cmd/nshd-bench and
// the repository's bench suite are thin wrappers around these runners.
package experiments

import (
	"fmt"
	"io"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/dataset"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// Env scales the experiment suite. The paper trains on full CIFAR with
// server GPUs; the Quick preset keeps every experiment CPU-feasible while
// preserving the comparisons' shape.
type Env struct {
	// TrainN / TestN are per-dataset sample counts for the 10-class
	// workload; the 100-class variants hold more samples per the class
	// count.
	TrainN, TestN       int
	TrainN100, TestN100 int
	// Include100 adds the 100-class dataset to the trained experiments.
	Include100 bool
	// Models selects the zoo models exercised by trained experiments.
	Models []string
	// PretrainEpochs / HDEpochs are the teacher and HD retraining budgets.
	PretrainEpochs int
	HDEpochs       int
	// D is the default hypervector dimension.
	D int
	// FHat is the manifold width (paper: 100).
	FHat int
	// Seed drives data generation and all model initialization.
	Seed int64
	// CacheDir holds pretrained teacher snapshots ("" disables caching).
	CacheDir string
	// Log receives progress lines (nil silences).
	Log io.Writer
	// Manifest receives one line per teacher the session pretrains or
	// restores, with its wall time (nil silences).
	Manifest io.Writer
}

// Quick returns the CPU-budget preset used by the bench suite: the 10-class
// workload across all four zoo models.
func Quick() Env {
	return Env{
		TrainN: 320, TestN: 160,
		TrainN100: 1000, TestN100: 300,
		Include100:     false,
		Models:         cnn.Names(),
		PretrainEpochs: 18,
		HDEpochs:       8,
		D:              3000,
		FHat:           100,
		Seed:           1,
		CacheDir:       "",
	}
}

// Full returns the extended preset (both datasets, more samples). Expect
// tens of minutes of CPU time on first run; teachers are cached.
func Full() Env {
	e := Quick()
	e.TrainN, e.TestN = 512, 256
	e.Include100 = true
	e.PretrainEpochs = 8
	return e
}

// classesList returns the dataset class counts the env evaluates.
func (e Env) classesList() []int {
	if e.Include100 {
		return []int{10, 100}
	}
	return []int{10}
}

// Session memoizes datasets, pretrained teachers and extracted features
// across experiments so a full suite run pays each CNN cost once.
type Session struct {
	Env Env

	data     map[int][2]*dataset.Dataset // classes -> {train, test}
	teachers map[string]*cnn.Model       // "name/classes"
	cnnAcc   map[string]float64          // teacher test accuracy
}

// NewSession creates an empty session for the environment.
func NewSession(env Env) *Session {
	return &Session{
		Env:      env,
		data:     make(map[int][2]*dataset.Dataset),
		teachers: make(map[string]*cnn.Model),
		cnnAcc:   make(map[string]float64),
	}
}

func (s *Session) logf(format string, args ...any) {
	if s.Env.Log != nil {
		fmt.Fprintf(s.Env.Log, format+"\n", args...)
	}
}

// Data returns the normalized train/test splits for a class count.
func (s *Session) Data(classes int) (*dataset.Dataset, *dataset.Dataset) {
	if pair, ok := s.data[classes]; ok {
		return pair[0], pair[1]
	}
	trainN, testN := s.Env.TrainN, s.Env.TestN
	if classes >= 100 {
		trainN, testN = s.Env.TrainN100, s.Env.TestN100
	}
	cfg := dataset.SynthConfig{
		Classes: classes, Train: trainN, Test: testN,
		Size: 32, Noise: 0.3, Seed: s.Env.Seed,
	}
	train, test := dataset.SynthCIFAR(cfg)
	means, stds := train.Normalize()
	test.ApplyNormalization(means, stds)
	s.data[classes] = [2]*dataset.Dataset{train, test}
	s.logf("data: synthcifar%d train=%d test=%d", classes, train.Len(), test.Len())
	return train, test
}

// Teacher returns the pretrained zoo model for (name, classes), training it
// on first use (or restoring it from the cache directory).
func (s *Session) Teacher(name string, classes int) (*cnn.Model, error) {
	key := fmt.Sprintf("%s/%d", name, classes)
	if m, ok := s.teachers[key]; ok {
		return m, nil
	}
	zoo, err := cnn.Build(name, tensor.NewRNG(s.Env.Seed+int64(classes)), classes)
	if err != nil {
		return nil, err
	}
	train, test := s.Data(classes)
	pcfg := cnn.PretrainConfig{
		Epochs:    s.Env.PretrainEpochs,
		BatchSize: 32,
		LR:        0.05,
		Momentum:  0.9,
		CacheDir:  s.Env.CacheDir,
		Log:       s.Env.Log,
	}
	s.logf("teacher: pretraining %s on %d classes", name, classes)
	start := time.Now()
	trainAcc, cached, err := cnn.Pretrain(zoo, train, pcfg, tensor.NewRNG(s.Env.Seed+7))
	if err != nil {
		return nil, err
	}
	if s.Env.Manifest != nil {
		source := "trained"
		if cached {
			source = "cached"
		}
		fmt.Fprintf(s.Env.Manifest, "# teacher: %s/%d %s %.1f s\n", name, classes, source, time.Since(start).Seconds())
	}
	testAcc := nn.Evaluate(zoo.Full(), test.Images, test.Labels, 32)
	s.logf("teacher: %s/%d train=%.3f test=%.3f cached=%v", name, classes, trainAcc, testAcc, cached)
	s.teachers[key] = zoo
	s.cnnAcc[key] = testAcc
	return zoo, nil
}

// CNNTestAccuracy returns the cached teacher's test accuracy (training it if
// needed).
func (s *Session) CNNTestAccuracy(name string, classes int) (float64, error) {
	key := fmt.Sprintf("%s/%d", name, classes)
	if acc, ok := s.cnnAcc[key]; ok {
		return acc, nil
	}
	if _, err := s.Teacher(name, classes); err != nil {
		return 0, err
	}
	return s.cnnAcc[key], nil
}

// EnergyLayers returns the two cut layers per model used by the energy and
// KD comparisons (the paper selects two per model; for EfficientNets those
// are stages 6 and 7).
func EnergyLayers(model string) []int {
	switch model {
	case "vgg16":
		return []int{27, 29}
	case "mobilenetv2":
		return []int{14, 17}
	case "effnetb0", "effnetb7":
		return []int{6, 7}
	default:
		return nil
	}
}

// BestLayer returns the deepest paper layer per model — the cut used by the
// headline accuracy comparison (Fig. 7).
func BestLayer(model string) int {
	layers := cnn.PaperLayers(model)
	return layers[len(layers)-1]
}

// Table is a rendered experiment artifact: header, rows and free-form notes.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}
