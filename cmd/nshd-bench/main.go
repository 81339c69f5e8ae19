// Command nshd-bench regenerates the paper's tables and figures from this
// repository's implementation.
//
// Usage:
//
//	nshd-bench -exp analytic                              # Table I, Figs. 4-6, Table II (fast)
//	nshd-bench -exp fig7 -cache .cache                    # trained (slow first run)
//	nshd-bench -exp all -preset full -cache .cache
//
// The experiment ids and the groups "analytic", "trained" and "all" come from
// one table (experimentTable); nshd-bench -h lists them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nshd/internal/experiments"
)

// options carries the per-figure flags to the experiment runners.
type options struct {
	gridModel string
	gridLayer int
	f10Model  string
	f11Model  string
	f11Layer  int
	svgDir    string
	out       io.Writer
}

// figure is one SVG an experiment produces beside its table.
type figure struct{ name, svg string }

// runFunc runs one experiment and returns its table and its figures.
type runFunc func(*experiments.Session, *options) (experiments.Table, []figure, error)

type experiment struct {
	id, group string
	run       runFunc
}

// plotted adapts a flag-free runner that returns typed rows, and the renderer
// of its one SVG, to an experiment's run.
func plotted[R any](name string, run func(*experiments.Session) (R, experiments.Table, error), svg func(R) string) runFunc {
	return func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		rows, t, err := run(s)
		if err != nil {
			return t, nil, err
		}
		return t, []figure{{name, svg(rows)}}, nil
	}
}

// experimentTable is the one ordered list of experiment ids: runOne, the
// group expansion, the usage text and the unknown-id error all read it.
// "analytic" experiments need no training; "trained" ones train pipelines on
// top of the session's memoized teachers; "all" is every row, in this order.
var experimentTable = []experiment{
	{"table1", "analytic", func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		_, t := s.Table1()
		return t, nil, nil
	}},
	{"fig4", "analytic", plotted("fig4.svg", (*experiments.Session).Fig4, experiments.Fig4SVG)},
	{"fig5", "analytic", plotted("fig5.svg", (*experiments.Session).Fig5, experiments.Fig5SVG)},
	{"fig6", "analytic", plotted("fig6.svg", (*experiments.Session).Fig6, experiments.Fig6SVG)},
	{"table2", "analytic", func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		_, t, err := s.Table2()
		return t, nil, err
	}},
	{"fig7", "trained", plotted("fig7.svg", (*experiments.Session).Fig7, experiments.Fig7SVG)},
	{"fig8", "trained", plotted("fig8.svg", (*experiments.Session).Fig8, experiments.Fig8SVG)},
	{"fig9", "trained", func(s *experiments.Session, o *options) (experiments.Table, []figure, error) {
		_, t, err := s.Fig9(o.gridModel, o.gridLayer)
		return t, nil, err
	}},
	{"fig10", "trained", func(s *experiments.Session, o *options) (experiments.Table, []figure, error) {
		rows, t, err := s.Fig10(o.f10Model)
		if err != nil {
			return t, nil, err
		}
		return t, []figure{{"fig10.svg", experiments.Fig10SVG(rows)}}, nil
	}},
	{"fig11", "trained", func(s *experiments.Session, o *options) (experiments.Table, []figure, error) {
		res, t, err := s.Fig11(o.f11Model, o.f11Layer)
		if err != nil {
			return t, nil, err
		}
		before, after := experiments.Fig11SVG(res)
		return t, []figure{{"fig11a.svg", before}, {"fig11b.svg", after}}, nil
	}},
	{"ablation-retrain", "trained", func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		_, t, err := s.AblationRetrain("effnetb0", 7)
		return t, nil, err
	}},
	{"ablation-ste", "trained", func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		_, t, err := s.AblationSTE("effnetb0", 7)
		return t, nil, err
	}},
	{"vanilla-claim", "trained", func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		t, err := s.VanillaClaim()
		return t, nil, err
	}},
	{"robustness", "trained", func(s *experiments.Session, _ *options) (experiments.Table, []figure, error) {
		_, t, err := s.Robustness("effnetb0", 7)
		return t, nil, err
	}},
}

// groupIDs returns the table's ids in order: those of one group, or every id
// for "all"; nil for anything else.
func groupIDs(group string) []string {
	var ids []string
	for _, e := range experimentTable {
		if group == "all" || e.group == group {
			ids = append(ids, e.id)
		}
	}
	return ids
}

func main() {
	var (
		expFlag = flag.String("exp", "analytic", "comma-separated experiment ids or groups:\n"+
			"analytic = "+strings.Join(groupIDs("analytic"), " ")+" (no training)\n"+
			"trained  = "+strings.Join(groupIDs("trained"), " ")+" (every one trains)\n"+
			"all      = analytic then trained, every id above")
		preset    = flag.String("preset", "quick", "environment preset: quick or full")
		cacheDir  = flag.String("cache", "", "teacher snapshot cache directory ('' disables)")
		models    = flag.String("models", "", "override comma-separated zoo models")
		trainN    = flag.Int("train", 0, "override 10-class training samples")
		testN     = flag.Int("test", 0, "override 10-class test samples")
		hdEpochs  = flag.Int("hd-epochs", 0, "override HD retraining epochs")
		preEpochs = flag.Int("pretrain-epochs", 0, "override teacher pretraining epochs")
		dim       = flag.Int("d", 0, "override hypervector dimension")
		seed      = flag.Int64("seed", 0, "override seed")
		verbose   = flag.Bool("v", false, "log progress to stderr")
		gridModel = flag.String("fig9-model", "effnetb7", "model for the fig9 grid")
		gridLayer = flag.Int("fig9-layer", 7, "cut layer for the fig9 grid")
		f10Model  = flag.String("fig10-model", "effnetb0", "model for the fig10 tradeoff")
		f11Model  = flag.String("fig11-model", "effnetb0", "model for the fig11 t-SNE")
		f11Layer  = flag.Int("fig11-layer", 7, "cut layer for the fig11 t-SNE")
		svgDir    = flag.String("svg", "", "also write figure SVGs into this directory")
	)
	flag.Parse()

	var env experiments.Env
	switch *preset {
	case "quick":
		env = experiments.Quick()
	case "full":
		env = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		os.Exit(2)
	}
	env.CacheDir = *cacheDir
	if *models != "" {
		env.Models = strings.Split(*models, ",")
	}
	if *trainN > 0 {
		env.TrainN = *trainN
	}
	if *testN > 0 {
		env.TestN = *testN
	}
	if *hdEpochs > 0 {
		env.HDEpochs = *hdEpochs
	}
	if *preEpochs > 0 {
		env.PretrainEpochs = *preEpochs
	}
	if *dim > 0 {
		env.D = *dim
	}
	if *seed != 0 {
		env.Seed = *seed
	}
	if *verbose {
		env.Log = os.Stderr
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	o := &options{
		gridModel: *gridModel, gridLayer: *gridLayer,
		f10Model: *f10Model, f11Model: *f11Model, f11Layer: *f11Layer,
		svgDir: *svgDir, out: os.Stdout,
	}
	s := experiments.NewSession(env)
	for _, id := range expandIDs(*expFlag) {
		if err := runOne(s, id, o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// expandIDs splits a comma-separated spec, replacing each group name by its
// ids; any other token is kept for runOne to accept or reject.
func expandIDs(spec string) []string {
	var ids []string
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if g := groupIDs(tok); g != nil {
			ids = append(ids, g...)
		} else {
			ids = append(ids, tok)
		}
	}
	return ids
}

// runOne runs the experiment with the given id, renders its table to o.out
// and, when o.svgDir is set, writes its figures there.
func runOne(s *experiments.Session, id string, o *options) error {
	for _, e := range experimentTable {
		if e.id != id {
			continue
		}
		t, figs, err := e.run(s, o)
		if err != nil {
			return err
		}
		t.Render(o.out)
		if o.svgDir == "" {
			return nil
		}
		for _, f := range figs {
			if err := os.WriteFile(filepath.Join(o.svgDir, f.name), []byte(f.svg), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment (have: %s)", strings.Join(groupIDs("all"), " "))
}
