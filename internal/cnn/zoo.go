// Package cnn provides the model zoo NSHD draws feature extractors from:
// CIFAR-scaled VGG16, MobileNetV2, EfficientNet-B0 and EfficientNet-B7, each
// carrying the per-layer indexing scheme the paper uses ("Efficientnet is
// divided by their blocks, Mobilenetv2 by operators, and VGG16 by each
// convolution, pooling, and activation layers"), plus a Cut operation that
// slices a pretrained model into a feature extractor while keeping the full
// network as the distillation teacher.
package cnn

import (
	"fmt"
	"sort"

	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// Unit is one indexable stage of a zoo model: the granularity at which the
// paper cuts feature extractors.
type Unit struct {
	// Index is the paper-style layer index.
	Index int
	// Label describes the unit ("conv3x3(64)", "invres(24,s2)", "stage3").
	Label string
	// Layers are the nn layers the unit comprises, in order.
	Layers []nn.Layer
}

// Model is a zoo CNN: indexed feature units followed by a classification
// head. The flattened Full network is the distillation teacher; Cut yields
// the student's feature extractor sharing the same parameters.
type Model struct {
	Name    string
	InShape []int // per-sample input shape [C, H, W]
	Classes int
	Units   []Unit
	Head    []nn.Layer

	full *nn.Sequential
}

// Finish assembles the flattened network from units and head; every
// constructor (and any ad-hoc model built from Units directly) must call it
// before use.
func (m *Model) Finish() *Model {
	var layers []nn.Layer
	for _, u := range m.Units {
		layers = append(layers, u.Layers...)
	}
	layers = append(layers, m.Head...)
	m.full = nn.NewSequential(m.Name, layers...)
	return m
}

// Full returns the complete network (feature units + head), used as the
// teacher and as the CNN baseline.
func (m *Model) Full() *nn.Sequential { return m.full }

// MaxIndex returns the largest unit index.
func (m *Model) MaxIndex() int { return m.Units[len(m.Units)-1].Index }

// Indices returns all unit indices in ascending order.
func (m *Model) Indices() []int {
	out := make([]int, len(m.Units))
	for i, u := range m.Units {
		out[i] = u.Index
	}
	sort.Ints(out)
	return out
}

// Cut returns the feature extractor consisting of every unit with
// Index <= layer. The returned Sequential SHARES parameters with the full
// model, so a pretrained teacher automatically yields a pretrained extractor.
func (m *Model) Cut(layer int) (*nn.Sequential, error) {
	prefix, _, err := m.split(layer)
	return prefix, err
}

// Rest returns what Cut(layer) leaves of the full network: every unit with
// Index > layer, then the head. The two share the full model's layer objects
// and partition them, so Rest's eval-mode Forward on Cut's output is the
// teacher's Forward resumed from the extractor's features — the same layers
// on the same inputs.
func (m *Model) Rest(layer int) (*nn.Sequential, error) {
	_, rest, err := m.split(layer)
	return rest, err
}

func (m *Model) split(layer int) (prefix, rest *nn.Sequential, err error) {
	var head, tail []nn.Layer
	found := false
	for _, u := range m.Units {
		if u.Index <= layer {
			head = append(head, u.Layers...)
			found = found || u.Index == layer
		} else {
			tail = append(tail, u.Layers...)
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("cnn: %s has no unit with index %d (valid: %v)", m.Name, layer, m.Indices())
	}
	tail = append(tail, m.Head...)
	return nn.NewSequential(fmt.Sprintf("%s@%d", m.Name, layer), head...),
		nn.NewSequential(fmt.Sprintf("%s@%d:", m.Name, layer), tail...), nil
}

// FeatureDim returns the flattened feature count produced by cutting at the
// given layer — the F fed into NSHD's manifold learner.
func (m *Model) FeatureDim(layer int) (int, error) {
	fe, err := m.Cut(layer)
	if err != nil {
		return 0, err
	}
	shape := fe.OutShape(m.InShape)
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n, nil
}

// CutStats returns the per-sample inference cost of the feature extractor
// cut at the given layer.
func (m *Model) CutStats(layer int) (nn.Stats, error) {
	fe, err := m.Cut(layer)
	if err != nil {
		return nn.Stats{}, err
	}
	return fe.Stats(m.InShape), nil
}

// FullStats returns the per-sample inference cost of the entire CNN.
func (m *Model) FullStats() nn.Stats { return m.full.Stats(m.InShape) }

// Builder constructs a zoo model for a class count with a seeded RNG.
type Builder func(rng *tensor.RNG, classes int) *Model

// registry of zoo models, keyed by the names used throughout the paper.
var registry = map[string]Builder{
	"vgg16":       NewVGG16,
	"mobilenetv2": NewMobileNetV2,
	"effnetb0":    NewEfficientNetB0,
	"effnetb7":    NewEfficientNetB7,
}

// Names returns the registered model names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build constructs a registered model by name.
func Build(name string, rng *tensor.RNG, classes int) (*Model, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cnn: unknown model %q (have %v)", name, Names())
	}
	return b(rng, classes), nil
}

// PaperLayers returns the cut-layer indices the paper evaluates per model
// (Figs. 4-8, Table II).
func PaperLayers(name string) []int {
	switch name {
	case "vgg16":
		return []int{27, 29}
	case "mobilenetv2":
		return []int{14, 17}
	case "effnetb0":
		return []int{5, 6, 7, 8}
	case "effnetb7":
		return []int{6, 7, 8}
	default:
		return nil
	}
}
