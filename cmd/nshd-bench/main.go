// Command nshd-bench regenerates the paper's tables and figures from this
// repository's implementation.
//
// Usage:
//
//	nshd-bench -exp table1,fig4,fig5,fig6,table2          # analytic (fast)
//	nshd-bench -exp fig7 -cache .cache                    # trained (slow first run)
//	nshd-bench -exp all -preset full -cache .cache
//
// Experiments: table1 fig4 fig5 fig6 table2 fig7 fig8 fig9 fig10 fig11
// ablation-retrain ablation-ste vanilla-claim; "analytic" and "all" expand
// to groups.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nshd/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "analytic", "comma-separated experiment ids, or 'analytic'/'trained'/'all'")
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
		perfOut   = flag.String("perf", "", "run compute-kernel microbenchmarks, write JSON to this file, and exit")
		perfTrain = flag.String("perf-train", "", "run only the training-path benchmarks, write JSON to this file, and exit")
		perfBase  = flag.String("perf-baseline", "", "with -perf-train: print deltas against this committed baseline JSON")
		perfServe = flag.String("perf-serve", "", "run the serving load generator, write JSON to this file, and exit")
		serveBase = flag.String("perf-serve-baseline", "", "with -perf-serve: print deltas against this committed baseline JSON")
		perfQuant = flag.String("perf-quant", "", "run the int8-vs-float engine benchmarks, write JSON to this file, and exit")
		quantBase = flag.String("perf-quant-baseline", "", "with -perf-quant: print deltas against this committed baseline JSON")
		perfCmp   = flag.String("perf-compress", "", "run the post-training compression tradeoff benchmarks, write JSON to this file, and exit")
		cmpBase   = flag.String("perf-compress-baseline", "", "with -perf-compress: print deltas against this committed baseline JSON")
		perfLat   = flag.String("perf-latency", "", "run the batch-1 serving-latency benchmarks, write JSON to this file, and exit")
		latBase   = flag.String("perf-latency-baseline", "", "with -perf-latency: embed and print deltas against this baseline JSON")
		perfFuse  = flag.String("perf-fuse", "", "run the fused-vs-unfused extraction benchmarks, write JSON to this file, and exit")
		fuseBase  = flag.String("perf-fuse-baseline", "", "with -perf-fuse: embed and print deltas against this baseline JSON")
		perfRtr   = flag.String("perf-router", "", "run the sharded-router scaling benchmarks, write JSON to this file, and exit")
		rtrBase   = flag.String("perf-router-baseline", "", "with -perf-router: print deltas against this committed baseline JSON")
		rtrWorker = flag.String("router-worker", "", "internal: run as a perf-router shard worker (\"i/S\")")
		rtrDuty   = flag.Float64("router-duty", 0.22, "internal: shard worker CPU duty-cycle cap")
	)
	flag.Parse()

	if *rtrWorker != "" {
		if err := runRouterWorker(*rtrWorker, *rtrDuty); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfRtr != "" {
		if err := runPerfRouter(*perfRtr, *rtrBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfOut != "" {
		if err := runPerf(*perfOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfTrain != "" {
		if err := runPerfTrain(*perfTrain, *perfBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfServe != "" {
		if err := runPerfServe(*perfServe, *serveBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfQuant != "" {
		if err := runPerfQuant(*perfQuant, *quantBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfCmp != "" {
		if err := runPerfCompress(*perfCmp, *cmpBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfLat != "" {
		if err := runPerfLatency(*perfLat, *latBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *perfFuse != "" {
		if err := runPerfFuse(*perfFuse, *fuseBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

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
	ids := expandIDs(*expFlag)
	s := experiments.NewSession(env)
	for _, id := range ids {
		if err := runOne(s, id, *gridModel, *gridLayer, *f10Model, *f11Model, *f11Layer, *svgDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func expandIDs(spec string) []string {
	analytic := []string{"table1", "fig4", "fig5", "fig6", "table2"}
	trained := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "ablation-retrain", "ablation-ste"}
	var ids []string
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "analytic":
			ids = append(ids, analytic...)
		case "trained":
			ids = append(ids, trained...)
		case "all":
			ids = append(ids, analytic...)
			ids = append(ids, trained...)
		case "":
		default:
			ids = append(ids, strings.TrimSpace(tok))
		}
	}
	return ids
}

func writeSVG(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func runOne(s *experiments.Session, id, gridModel string, gridLayer int, f10Model, f11Model string, f11Layer int, svgDir string) error {
	switch id {
	case "table1":
		_, t := s.Table1()
		t.Render(os.Stdout)
	case "fig4":
		rows, t, err := s.Fig4()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if err := writeSVG(svgDir, "fig4.svg", experiments.Fig4SVG(rows)); err != nil {
			return err
		}
	case "fig5":
		rows, t, err := s.Fig5()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if err := writeSVG(svgDir, "fig5.svg", experiments.Fig5SVG(rows)); err != nil {
			return err
		}
	case "fig6":
		rows, t, err := s.Fig6()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if err := writeSVG(svgDir, "fig6.svg", experiments.Fig6SVG(rows)); err != nil {
			return err
		}
	case "table2":
		_, t, err := s.Table2()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
	case "fig7":
		rows, t, err := s.Fig7()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if err := writeSVG(svgDir, "fig7.svg", experiments.Fig7SVG(rows)); err != nil {
			return err
		}
	case "fig8":
		rows, t, err := s.Fig8()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if err := writeSVG(svgDir, "fig8.svg", experiments.Fig8SVG(rows)); err != nil {
			return err
		}
	case "fig9":
		_, t, err := s.Fig9(gridModel, gridLayer)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
	case "fig10":
		rows, t, err := s.Fig10(f10Model)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if err := writeSVG(svgDir, "fig10.svg", experiments.Fig10SVG(rows)); err != nil {
			return err
		}
	case "fig11":
		res, t, err := s.Fig11(f11Model, f11Layer)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		before, after := experiments.Fig11SVG(res)
		if err := writeSVG(svgDir, "fig11a.svg", before); err != nil {
			return err
		}
		if err := writeSVG(svgDir, "fig11b.svg", after); err != nil {
			return err
		}
	case "ablation-retrain":
		_, t, err := s.AblationRetrain("effnetb0", 7)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
	case "ablation-ste":
		_, t, err := s.AblationSTE("effnetb0", 7)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
	case "robustness":
		_, t, err := s.Robustness("effnetb0", 7)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
	case "vanilla-claim":
		t, err := s.VanillaClaim()
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
	default:
		return fmt.Errorf("unknown experiment (have: table1 fig4 fig5 fig6 table2 fig7 fig8 fig9 fig10 fig11 ablation-retrain ablation-ste robustness vanilla-claim)")
	}
	return nil
}
