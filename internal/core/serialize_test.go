package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nshd/internal/cnn"
	"nshd/internal/tensor"
)

// TestLoadHostileSnapshot: a snapshot is whatever file is on disk when a
// serving process reloads, so every well-formed-but-wrong or cut-off gob must
// come back from Load as an error — never a panic — and the untouched
// snapshot must still load.
func TestLoadHostileSnapshot(t *testing.T) {
	const classes = 4
	zoo, err := cnn.Build("mobilenetv2", tensor.NewRNG(42), classes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(classes)
	cfg.CutLayer = 5
	p, err := New(zoo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.gob")
	if err := p.Save(good); err != nil {
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
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// mutated re-encodes the good snapshot after edit has damaged it.
	mutated := func(edit func(s *snapshot)) []byte {
		var s snapshot
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
			t.Fatal(err)
		}
		edit(&s)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
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
		"class matrix of another D": mutated(func(s *snapshot) { s.M = s.M[:len(s.M)-classes] }),
		// F̂ sizes what New allocates, so it has to be checked against the
		// tensors the file carries before New runs (1<<20 keeps the miss cheap).
		"FHat beyond the manifold tensors": mutated(func(s *snapshot) { s.Cfg.FHat = 1 << 20 }),
		"no manifold tensors":              mutated(func(s *snapshot) { s.Manifold = nil }),
		"FHat not the bias length":         mutated(func(s *snapshot) { s.Cfg.FHat /= 2 }),
	} {
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
