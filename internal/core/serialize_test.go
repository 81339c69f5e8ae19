package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// snapshotClasses is the class count of goodSnapshot's model.
const snapshotClasses = 4

// goodSnapshot returns the bytes of a valid snapshot: mobilenetv2, the
// smallest registered zoo model (Load rebuilds models by registered name), cut
// at layer 5.
func goodSnapshot(tb testing.TB) []byte {
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(42), snapshotClasses)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := testConfig(snapshotClasses)
	cfg.CutLayer = 5
	p, err := New(zoo, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "good.gob")
	if err := p.Save(path); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// hostileSnapshots derives from a valid snapshot's bytes the well-formed but
// wrong, and the cut-off, snapshots Load must refuse.
func hostileSnapshots(tb testing.TB, raw []byte) map[string][]byte {
	// mutated re-encodes the good snapshot after edit has damaged it.
	mutated := func(edit func(s *snapshot)) []byte {
		var s snapshot
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
			tb.Fatal(err)
		}
		edit(&s)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"nil Zoo":          mutated(func(s *snapshot) { s.Zoo = nil }),
		"zero classes":     mutated(func(s *snapshot) { s.Cfg.Classes = 0 }),
		"negative classes": mutated(func(s *snapshot) { s.Cfg.Classes = -3 }),
		"zero D":           mutated(func(s *snapshot) { s.Cfg.D = 0 }),
		"unknown zoo name": mutated(func(s *snapshot) { s.ZooName = "resnet9000" }),
		"truncated":        raw[:len(raw)/2],
		"CNN tensor one element short": mutated(func(s *snapshot) {
			for k, v := range s.Zoo.Tensors {
				s.Zoo.Tensors[k] = v[:len(v)-1]
				return
			}
		}),
		"class matrix of another D": mutated(func(s *snapshot) { s.M = s.M[:len(s.M)-snapshotClasses] }),
		// F̂ sizes what New allocates, so it has to be checked against the
		// tensors the file carries before New runs (1<<20 keeps the miss cheap).
		"FHat beyond the manifold tensors": mutated(func(s *snapshot) { s.Cfg.FHat = 1 << 20 }),
		"no manifold tensors":              mutated(func(s *snapshot) { s.Manifold = nil }),
		"FHat not the bias length":         mutated(func(s *snapshot) { s.Cfg.FHat /= 2 }),
		"format from a later build":        mutated(func(s *snapshot) { s.Version = snapshotVersion + 1 }),
		"BaselineHD in format 0": mutated(func(s *snapshot) {
			s.Version, s.Cfg.UseManifold, s.Manifold = 0, false, nil
		}),
		"tensor map claims 4 Mi entries": mapCountBomb(tb),
	}
}

// mapCountBomb is a snapshot of a few hundred bytes whose CNN tensor map
// claims 2²² entries and carries one. The count is written in place of four
// bytes of the label in front of it, so no length prefix changes: gob writes
// the label as its length and bytes, the map's field delta 1, then its count
// — 1, one byte — and the first key.
func mapCountBomb(tb testing.TB) []byte {
	s := snapshot{
		Cfg:     testConfig(snapshotClasses),
		ZooName: "mobilenetv2",
		Zoo:     &nn.Snapshot{Label: "padding!", Tensors: map[string][]float32{"t": nil}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		tb.Fatal(err)
	}
	from, to := "\x08padding!\x01\x01\x01t", "\x04padd\x01\xfc\x00\x40\x00\x00\x01t"
	out := bytes.Replace(buf.Bytes(), []byte(from), []byte(to), 1)
	if bytes.Equal(out, buf.Bytes()) {
		tb.Fatal("gob no longer encodes the label and the tensor map as expected")
	}
	return out
}

// TestLoadHostileSnapshot: a snapshot is whatever file is on disk when a
// serving process reloads, so every well-formed-but-wrong or cut-off gob must
// come back from Load as an error — never a panic — and the untouched
// snapshot must still load.
func TestLoadHostileSnapshot(t *testing.T) {
	raw := goodSnapshot(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.gob")
	if err := os.WriteFile(good, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	// loadAlloc is Load plus the bytes it allocated: a hostile header must not
	// make Load allocate far beyond what the file itself justifies.
	loadAlloc := func(path string) (*Pipeline, uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := Load(path)
		runtime.ReadMemStats(&after)
		return q, after.TotalAlloc - before.TotalAlloc, err
	}
	_, goodAlloc, err := loadAlloc(good)
	if err != nil {
		t.Fatalf("untouched snapshot: %v", err)
	}
	for name, data := range hostileSnapshots(t, raw) {
		path := filepath.Join(dir, "bad.gob")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Load panicked: %v", name, r)
				}
			}()
			q, alloc, err := loadAlloc(path)
			if err == nil {
				t.Errorf("%s: Load returned a pipeline (%v), want an error", name, q.Cfg)
			}
			if alloc > 4*goodAlloc {
				t.Errorf("%s: Load allocated %d bytes, the untouched snapshot needs %d", name, alloc, goodAlloc)
			}
		}()
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot loader: the outcome is a
// pipeline or an error, never a panic. The seeds are the valid snapshot and
// TestLoadHostileSnapshot's cases, built here because a snapshot carries
// ≈ 0.7 MB of weights, plus the small inputs checked in under
// testdata/fuzz/FuzzLoad: header-only snapshots the fuzzer mutates cheaply,
// and what it found.
func FuzzLoad(f *testing.F) {
	raw := goodSnapshot(f)
	f.Add(raw)
	for _, data := range hostileSnapshots(f, raw) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := load(bytes.NewReader(data), "fuzz input")
		if (p == nil) == (err == nil) {
			t.Fatalf("load returned a pipeline: %v, and the error %v", p != nil, err)
		}
	})
}

// config0 and snapshot0 are Config and snapshot as Save wrote them before the
// format version: LSHDim chose a pipeline without the manifold's encoder,
// sign(W·v) over LSHDim hyperplanes or, at 0, none.
type config0 struct {
	CutLayer, Classes, D, FHat int
	UseManifold                bool
	LSHDim                     int
	UseKD                      bool
	Alpha, Temp                float64
	Epochs                     int
	LR, ManifoldLR             float64
	BatchSize                  int
	Seed                       int64
	PackedInference            bool
}

type snapshot0 struct {
	Cfg      config0
	ZooName  string
	Zoo      *nn.Snapshot
	Manifold [][]float32
	M        []float32
}

// format0 re-encodes a snapshot Save wrote in the layout of format 0, with
// the given LSHDim.
func format0(t *testing.T, raw []byte, lshDim int) []byte {
	t.Helper()
	var s snapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
		t.Fatal(err)
	}
	c := s.Cfg
	old := snapshot0{
		Cfg: config0{
			CutLayer: c.CutLayer, Classes: c.Classes, D: c.D, FHat: c.FHat,
			UseManifold: c.UseManifold, LSHDim: lshDim, UseKD: c.UseKD,
			Alpha: c.Alpha, Temp: c.Temp, Epochs: c.Epochs, LR: c.LR,
			ManifoldLR: c.ManifoldLR, BatchSize: c.BatchSize, Seed: c.Seed,
			PackedInference: c.PackedInference,
		},
		ZooName: s.ZooName, Zoo: s.Zoo, Manifold: s.Manifold, M: s.M,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadFormat0 loads snapshots in the layout written before the format
// version: an NSHD one serves as it did, with the same labels as the
// pipeline it came from, and a BaselineHD one — which may have encoded
// directly (LSHDim 0) or through LSH — is refused, LSHDim set or not.
func TestLoadFormat0(t *testing.T) {
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(42), snapshotClasses)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(snapshotClasses)
	cfg.CutLayer = 5
	images := tensor.New(6, 3, 32, 32)
	tensor.NewRNG(9).FillNormal(images, 0, 1)
	dir := t.TempDir()
	for _, build := range []struct {
		name string
		new  func(*cnn.Model, Config) (*Pipeline, error)
	}{{"NSHD", New}, {"BaselineHD", NewBaselineHD}} {
		p, err := build.new(zoo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tensor.NewRNG(8).FillNormal(p.HD.M, 0, 1)
		path := filepath.Join(dir, build.name+".gob")
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, lshDim := range []int{0, 1024} {
			if err := os.WriteFile(path, format0(t, raw, lshDim), 0o600); err != nil {
				t.Fatal(err)
			}
			q, err := Load(path)
			if build.name == "BaselineHD" {
				if err == nil {
					t.Errorf("format-0 BaselineHD snapshot (LSHDim %d) loaded, want an error", lshDim)
				}
				continue
			}
			if err != nil {
				t.Fatalf("format-0 NSHD snapshot: %v", err)
			}
			if got, want := q.PredictDirect(images), p.PredictDirect(images); !slices.Equal(got, want) {
				t.Fatalf("format-0 NSHD snapshot predicts %v, the saved pipeline %v", got, want)
			}
		}
	}
}
