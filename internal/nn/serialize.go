package nn

import (
	"encoding/gob"
	"fmt"
	"os"

	"nshd/internal/tensor"
)

// Snapshot is the on-disk form of a model's learnable state: every parameter
// plus non-learnable state such as batch-norm running statistics. The network
// topology is NOT serialized — models are rebuilt from their zoo spec and
// then restored, which keeps snapshots small and forward-compatible.
type Snapshot struct {
	Label   string
	Tensors map[string][]float32
	Shapes  map[string][]int
}

// Walk visits l and every nested layer in deterministic order. It descends
// into every composite layer defined in this package — *Sequential used as a
// Layer (e.g. non-skip MobileNetV2/EfficientNet blocks), Residual bodies and
// projections, and SEBlock MLPs — so stateful leaves (BatchNorm running
// statistics) are always reached.
func Walk(l Layer, visit func(Layer)) {
	visit(l)
	switch v := l.(type) {
	case *Sequential:
		for _, inner := range v.Layers {
			Walk(inner, visit)
		}
	case *Residual:
		for _, inner := range v.Body.Layers {
			Walk(inner, visit)
		}
		if v.Proj != nil {
			Walk(v.Proj, visit)
		}
	case *SEBlock:
		visit(v.FC1)
		visit(v.FC2)
	}
}

// WalkModel visits every layer of a Sequential recursively.
func WalkModel(s *Sequential, visit func(Layer)) {
	for _, l := range s.Layers {
		Walk(l, visit)
	}
}

// TakeSnapshot captures all parameters and batch-norm running statistics.
func TakeSnapshot(s *Sequential) *Snapshot {
	snap := &Snapshot{
		Label:   s.Label,
		Tensors: make(map[string][]float32),
		Shapes:  make(map[string][]int),
	}
	put := func(key string, t *tensor.Tensor) {
		snap.Tensors[key] = append([]float32(nil), t.Data...)
		snap.Shapes[key] = append([]int(nil), t.Shape...)
	}
	i := 0
	WalkModel(s, func(l Layer) {
		for pi, p := range l.Params() {
			put(fmt.Sprintf("layer%04d/param%d", i, pi), p.W)
		}
		if bn, ok := l.(*BatchNorm2D); ok {
			put(fmt.Sprintf("layer%04d/runmean", i), bn.RunMean)
			put(fmt.Sprintf("layer%04d/runvar", i), bn.RunVar)
		}
		i++
	})
	return snap
}

// RestoreSnapshot writes a snapshot's tensors back into a freshly built model
// with the same topology. It fails if any tensor is missing or mis-shaped.
func RestoreSnapshot(s *Sequential, snap *Snapshot) error {
	var err error
	get := func(key string, t *tensor.Tensor) {
		if err != nil {
			return
		}
		data, ok := snap.Tensors[key]
		if !ok {
			err = fmt.Errorf("nn: snapshot missing tensor %q", key)
			return
		}
		if len(data) != t.Len() {
			err = fmt.Errorf("nn: snapshot tensor %q has %d elems, model wants %d", key, len(data), t.Len())
			return
		}
		copy(t.Data, data)
	}
	i := 0
	WalkModel(s, func(l Layer) {
		for pi, p := range l.Params() {
			get(fmt.Sprintf("layer%04d/param%d", i, pi), p.W)
		}
		if bn, ok := l.(*BatchNorm2D); ok {
			get(fmt.Sprintf("layer%04d/runmean", i), bn.RunMean)
			get(fmt.Sprintf("layer%04d/runvar", i), bn.RunVar)
		}
		i++
	})
	return err
}

// SaveModel writes the model snapshot to path with gob encoding.
func SaveModel(s *Sequential, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: save model: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(TakeSnapshot(s)); err != nil {
		return fmt.Errorf("nn: encode model: %w", err)
	}
	return nil
}

// LoadModel restores a snapshot from path into the given model.
func LoadModel(s *Sequential, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("nn: load model: %w", err)
	}
	defer f.Close()
	// Existing maps, so gob does not size them by a count the file claims
	// (see core.Load).
	snap := Snapshot{Tensors: map[string][]float32{}, Shapes: map[string][]int{}}
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decode model: %w", err)
	}
	return RestoreSnapshot(s, &snap)
}
