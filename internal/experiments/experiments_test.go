package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyEnv keeps trained experiment tests CPU-cheap: one small model, few
// samples, low dimension.
func tinyEnv() Env {
	e := Quick()
	e.Models = []string{"mobilenetv2"}
	e.TrainN, e.TestN = 96, 48
	e.PretrainEpochs = 4
	e.HDEpochs = 4
	e.D = 512
	e.FHat = 32
	return e
}

func TestTable1ShapeAndBounds(t *testing.T) {
	s := NewSession(Quick())
	rep, table := s.Table1()
	if len(rep.Rows) != 5 {
		t.Fatalf("expected 5 resource rows, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Used <= 0 || r.Used > r.Available {
			t.Fatalf("%s: used %d of %d", r.Name, r.Used, r.Available)
		}
	}
	if len(table.Rows) != 5 || table.ID != "table1" {
		t.Fatal("rendered table malformed")
	}
	var buf bytes.Buffer
	table.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("Render produced nothing")
	}
}

func TestFig4AnalyticShape(t *testing.T) {
	s := NewSession(Quick())
	rows, _, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// 4 models × 2 layers × 1 dataset.
	if len(rows) != 8 {
		t.Fatalf("fig4 rows = %d", len(rows))
	}
	perModel := map[string][]Fig4Row{}
	for _, r := range rows {
		perModel[r.Model] = append(perModel[r.Model], r)
		if r.NSHDEnergyPJ <= 0 || r.CNNEnergyPJ <= 0 {
			t.Fatalf("non-positive energy in %+v", r)
		}
	}
	for model, rs := range perModel {
		// Paper shape: the earlier cut saves more energy.
		if rs[0].ImprovementPct <= rs[1].ImprovementPct {
			t.Fatalf("%s: earlier layer %d should save more than %d (%.2f vs %.2f)",
				model, rs[0].Layer, rs[1].Layer, rs[0].ImprovementPct, rs[1].ImprovementPct)
		}
		// And the earlier cut must genuinely save energy.
		if rs[0].ImprovementPct <= 0 {
			t.Fatalf("%s@%d: no energy saving (%.2f%%)", model, rs[0].Layer, rs[0].ImprovementPct)
		}
	}
	// VGG16's FC-heavy head makes it the biggest saver, as in the paper.
	best := rows[0]
	for _, r := range rows {
		if r.ImprovementPct > best.ImprovementPct {
			best = r
		}
	}
	if best.Model != "vgg16" {
		t.Fatalf("largest saving should be vgg16 (paper: 64%% at layer 27), got %s", best.Model)
	}
}

func TestFig5ManifoldSavings(t *testing.T) {
	s := NewSession(Quick())
	rows, _, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 models × 2 layers × 2 dims
		t.Fatalf("fig5 rows = %d", len(rows))
	}
	byKey := map[string]Fig5Row{}
	for _, r := range rows {
		if r.SavingsPct <= 0 {
			t.Fatalf("manifold must always save MACs: %+v", r)
		}
		byKey[keyOf(r.Model, r.Layer, r.D)] = r
	}
	// Paper shape: larger D → larger savings (encoding dominates).
	for _, r := range rows {
		if r.D == 3000 {
			big := byKey[keyOf(r.Model, r.Layer, 10000)]
			if big.SavingsPct <= r.SavingsPct {
				t.Fatalf("%s@%d: savings must grow with D (%.1f vs %.1f)",
					r.Model, r.Layer, r.SavingsPct, big.SavingsPct)
			}
		}
	}
}

func keyOf(m string, l, d int) string {
	return m + string(rune('0'+l%10)) + string(rune('a'+d%7))
}

func TestFig6ThroughputShape(t *testing.T) {
	s := NewSession(Quick())
	rows, _, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 4 models × 3 dims
		t.Fatalf("fig6 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ImprovementPct <= 0 {
			t.Fatalf("NSHD must beat CNN throughput at the earliest layer: %+v", r)
		}
	}
	// Larger D costs FPS.
	perKey := map[string]map[int]float64{}
	for _, r := range rows {
		if perKey[r.Model] == nil {
			perKey[r.Model] = map[int]float64{}
		}
		perKey[r.Model][r.D] = r.NSHDFPS
	}
	for model, fps := range perKey {
		if !(fps[1000] > fps[3000] && fps[3000] > fps[10000]) {
			t.Fatalf("%s: FPS must fall with D: %v", model, fps)
		}
	}
}

func TestTable2SizeOrdering(t *testing.T) {
	s := NewSession(Quick())
	rows, _, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 { // 4+3+2+2 paper layers
		t.Fatalf("table2 rows = %d", len(rows))
	}
	for _, r := range rows {
		// The manifold always undercuts BaselineHD's direct encoding.
		if r.NSHDBytes >= r.BaselineBytes {
			t.Fatalf("%s@%d: NSHD %d must be below BaselineHD %d",
				r.Model, r.Layer, r.NSHDBytes, r.BaselineBytes)
		}
	}
	// VGG16 is the largest CNN, as in the paper's table.
	var vgg, others int64
	for _, r := range rows {
		if r.Model == "vgg16" {
			vgg = r.CNNBytes
		} else if r.CNNBytes > others {
			others = r.CNNBytes
		}
	}
	if vgg <= others {
		t.Fatalf("vgg16 CNN bytes %d should exceed all others (%d)", vgg, others)
	}
}

func TestFig9GridProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment")
	}
	s := NewSession(tinyEnv())
	cells, table, err := s.Fig9("mobilenetv2", 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 60 {
		t.Fatalf("grid cells = %d, want 60", len(cells))
	}
	if len(table.Rows) != 10 {
		t.Fatalf("grid rows = %d", len(table.Rows))
	}
	// The α=0 row must be temperature-independent (paper's grid shows one
	// constant row).
	var zeroRow []float64
	for _, c := range cells {
		if c.Alpha == 0 {
			zeroRow = append(zeroRow, c.Accuracy)
		}
	}
	for _, v := range zeroRow[1:] {
		if math.Abs(v-zeroRow[0]) > 1e-9 {
			t.Fatalf("alpha=0 row must be constant across T: %v", zeroRow)
		}
	}
	for _, c := range cells {
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", c)
		}
	}
}

func TestFig11PurityImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment")
	}
	s := NewSession(tinyEnv())
	res, table, err := s.Fig11("mobilenetv2", 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Shape[0] != res.After.Shape[0] {
		t.Fatal("embeddings must cover the same points")
	}
	if len(table.Rows) != 2 {
		t.Fatal("fig11 table malformed")
	}
	// At tinyEnv scale the 4-epoch teacher produces near-random features,
	// so neither embedding clusters decisively; the invariants that must
	// hold are (a) finite purities in [0,1] and (b) training not collapsing
	// the structure that exists. The decisive before≪after contrast is
	// produced by the full run (`nshd-bench -exp fig11`) and the Fig11
	// bench, where the teacher is trained properly.
	for _, p := range []float64{res.PurityBefore, res.PurityAfter} {
		if p < 0 || p > 1 {
			t.Fatalf("purity out of range: %v", p)
		}
	}
	if res.PurityAfter < res.PurityBefore-0.1 {
		t.Fatalf("training collapsed embedding purity: %.3f -> %.3f",
			res.PurityBefore, res.PurityAfter)
	}
}

func TestEnergyAndBestLayers(t *testing.T) {
	for _, m := range []string{"vgg16", "mobilenetv2", "effnetb0", "effnetb7"} {
		if len(EnergyLayers(m)) != 2 {
			t.Fatalf("%s: energy layers %v", m, EnergyLayers(m))
		}
		if BestLayer(m) <= 0 {
			t.Fatalf("%s: best layer %d", m, BestLayer(m))
		}
	}
	if EnergyLayers("nope") != nil {
		t.Fatal("unknown model must yield nil layers")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "333", "note: n"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("render missing %q in %q", want, out)
		}
	}
}

func TestSVGRenderers(t *testing.T) {
	fig4 := Fig4SVG([]Fig4Row{{Model: "vgg16", Layer: 27, Classes: 10, ImprovementPct: 33.3}})
	if !contains(fig4, "vgg16@27/10") || !contains(fig4, "<svg") {
		t.Fatal("fig4 SVG malformed")
	}
	fig5 := Fig5SVG([]Fig5Row{
		{Model: "effnetb0", Layer: 6, D: 3000, SavingsPct: 17.7},
		{Model: "effnetb0", Layer: 6, D: 10000, SavingsPct: 40.0},
	})
	if !contains(fig5, "b0@6") || !contains(fig5, "D=10000") {
		t.Fatal("fig5 SVG malformed")
	}
	fig7 := Fig7SVG([]Fig7Row{{Model: "mobilenetv2", Layer: 17, Classes: 10,
		VanillaAcc: 0.1, BaselineAcc: 0.7, NSHDAcc: 0.65, CNNAcc: 0.4}})
	if !contains(fig7, "VanillaHD") || !contains(fig7, "mbv2@17/10") {
		t.Fatal("fig7 SVG malformed")
	}
	fig10 := Fig10SVG([]Fig10Row{
		{D: 1000, Accuracy: 0.8, QuantAcc: 0.79},
		{D: 3000, Accuracy: 0.9, QuantAcc: 0.9},
	})
	if !contains(fig10, "int8 accuracy") {
		t.Fatal("fig10 SVG malformed")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestRobustnessDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment")
	}
	s := NewSession(tinyEnv())
	rows, table, err := s.Robustness("mobilenetv2", 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(rows) {
		t.Fatal("table/rows mismatch")
	}
	var bitFlip []RobustnessRow
	for _, r := range rows {
		if r.NSHDAcc < 0 || r.NSHDAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
		if r.Kind == "bit-flip" {
			bitFlip = append(bitFlip, r)
		}
	}
	if len(bitFlip) != 5 {
		t.Fatalf("bit-flip sweep rows = %d", len(bitFlip))
	}
	// Graceful degradation: 5% bit corruption must not collapse accuracy
	// relative to clean (the holistic-representation property).
	clean, mild := bitFlip[0].NSHDAcc, bitFlip[1].NSHDAcc
	if clean > 0.3 && mild < clean-0.15 {
		t.Fatalf("5%% bit flips collapsed accuracy: %.3f -> %.3f", clean, mild)
	}
}

// TestTeacherManifestLines: a session writes one manifest line per teacher,
// the first time it is asked for, saying whether it was trained or restored
// from the cache directory.
func TestTeacherManifestLines(t *testing.T) {
	env := tinyEnv()
	env.TrainN, env.TestN, env.PretrainEpochs = 32, 16, 1
	env.CacheDir = t.TempDir()
	for _, want := range []string{"trained", "cached"} {
		var out bytes.Buffer
		env.Manifest = &out
		s := NewSession(env)
		for range 2 {
			if _, err := s.Teacher("vgg16", 10); err != nil {
				t.Fatal(err)
			}
		}
		if line := out.String(); !strings.HasPrefix(line, "# teacher: vgg16/10 "+want+" ") || !strings.HasSuffix(line, " s\n") || strings.Count(line, "\n") != 1 {
			t.Errorf("manifest %q, want one line for a %s vgg16/10 teacher", line, want)
		}
	}
}
