package core

import (
	"encoding/gob"
	"fmt"
	"os"

	"nshd/internal/cnn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// snapshot is the on-disk form of a trained pipeline. The projection and
// topology are NOT stored: both are reconstructed deterministically from the
// config seed, which keeps snapshots compact even for BaselineHD's large
// projections.
type snapshot struct {
	Cfg      Config
	ZooName  string
	Zoo      *nn.Snapshot
	Manifold [][]float32
	M        []float32
}

// Save writes the trained pipeline (CNN weights, manifold weights, class
// hypervectors) to path.
func (p *Pipeline) Save(path string) error {
	s := snapshot{
		Cfg:     p.Cfg,
		ZooName: p.Zoo.Name,
		Zoo:     nn.TakeSnapshot(p.Zoo.Full()),
		M:       append([]float32(nil), p.HD.M.Data...),
	}
	if p.Manifold != nil {
		for _, prm := range p.Manifold.Params() {
			s.Manifold = append(s.Manifold, append([]float32(nil), prm.W.Data...))
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save pipeline: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(&s); err != nil {
		return fmt.Errorf("core: encode pipeline: %w", err)
	}
	return nil
}

// Load reconstructs a pipeline from a snapshot written by Save. Zoo models
// are rebuilt by registered name; pipelines over ad-hoc models cannot be
// loaded this way. A snapshot is outside input — a serving process reloads
// whatever file is on disk — so anything wrong with it is an error, never a
// panic.
func Load(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	defer f.Close()
	var s snapshot
	if err := gob.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decode pipeline: %w", err)
	}
	p, err := s.restore()
	if err != nil {
		return nil, fmt.Errorf("core: load pipeline %s: %w", path, err)
	}
	return p, nil
}

// restore rebuilds the pipeline a decoded snapshot describes. The config, the
// nil fields and the class-matrix size are checked before anything is built
// from them: the model constructors panic on a non-positive class count, and
// Classes·D matching the matrix the file really carries bounds what a
// well-formed but hostile header can make them allocate. F̂ sizes New's
// pooledF × F̂ manifold linear and D × F̂ projection, so it too must be a
// length the file carries: Save writes that linear as its weight (pooledF·F̂
// elements) and then its bias (F̂).
func (s *snapshot) restore() (*Pipeline, error) {
	if err := s.Cfg.Validate(); err != nil {
		return nil, err
	}
	if s.Zoo == nil {
		return nil, fmt.Errorf("core: snapshot has no CNN weights")
	}
	if len(s.M)/s.Cfg.D != s.Cfg.Classes || len(s.M)%s.Cfg.D != 0 {
		return nil, fmt.Errorf("core: class matrix has %d elems, want %d x %d", len(s.M), s.Cfg.Classes, s.Cfg.D)
	}
	if s.Cfg.UseManifold {
		if len(s.Manifold) != 2 {
			return nil, fmt.Errorf("core: snapshot has %d manifold tensors, want weight and bias", len(s.Manifold))
		}
		w, b := s.Manifold[0], s.Manifold[1]
		if len(b) != s.Cfg.FHat || len(w) == 0 || len(w)%s.Cfg.FHat != 0 {
			return nil, fmt.Errorf("core: F̂ = %d does not fit manifold tensors of %d and %d elems", s.Cfg.FHat, len(w), len(b))
		}
	}
	zoo, err := cnn.Build(s.ZooName, tensor.NewRNG(0), s.Cfg.Classes)
	if err != nil {
		return nil, err
	}
	if err := nn.RestoreSnapshot(zoo.Full(), s.Zoo); err != nil {
		return nil, err
	}
	p, err := New(zoo, s.Cfg)
	if err != nil {
		return nil, err
	}
	if p.Manifold != nil {
		params := p.Manifold.Params()
		if len(params) != len(s.Manifold) {
			return nil, fmt.Errorf("core: snapshot has %d manifold tensors, model wants %d", len(s.Manifold), len(params))
		}
		for i, prm := range params {
			if len(s.Manifold[i]) != prm.W.Len() {
				return nil, fmt.Errorf("core: manifold tensor %d has %d elems, want %d", i, len(s.Manifold[i]), prm.W.Len())
			}
			copy(prm.W.Data, s.Manifold[i])
		}
	}
	copy(p.HD.M.Data, s.M)
	p.HD.Invalidate()
	return p, nil
}
