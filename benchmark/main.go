// Command benchmark is the repository's benchmark: five workloads from HTTP
// request to argmax, each reporting the same end-to-end metrics, and a
// traced mode that attributes the time layer by layer. README.md in this
// directory says why each workload exists and how to read the output;
// BENCHMARK.json at the repository root names the metrics and their bounds.
//
//	go run ./benchmark -workload online_single -seed 1 -seconds 10 -trace 0
//	go run ./benchmark            # every workload, both modes, as tables
//	go run ./benchmark -aa        # same code twice, compared with the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// all of them; README.md says what an operation is on each workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"images_per_s", "images/s"},
	{"train_s", "s"},
	{"accuracy", "fraction"},
	{"model_bytes", "bytes"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, named <module>.<metric>. A
// layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"serve.transport_us", "us"},
	{"serve.codec_us", "us"},
	{"serve.batcher_us", "us"},
	{"serve.mean_batch", "images"},
	{"serve.requests", "count"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.alloc_bytes_per_req", "bytes"},
	{"engine.compile_s", "s"},
	{"engine.predict_us", "us"},
	{"engine.extract_us", "us"},
	{"engine.manifold_us", "us"},
	{"engine.tail_us", "us"},
	{"engine.extract_share", "fraction"},
	{"engine.tail_share", "fraction"},
	{"engine.allocs_per_predict", "count"},
	{"engine.chunk", "images"},
	{"engine.fused_blocks", "count"},
	{"engine.bytes_extract", "bytes"},
	{"engine.bytes_manifold", "bytes"},
	{"engine.bytes_tail", "bytes"},
	{"nn.extract_macs", "MACs"},
	{"nn.extract_gflops", "GFLOP/s"},
	{"nn.extract_peak_share", "fraction"},
	{"nn.slowest_layer_us", "us"},
	{"nn.slowest_layer_share", "fraction"},
	{"nn.unfused_extract_us", "us"},
	{"tensor.gemm_peak_gflops", "GFLOP/s"},
	{"tensor.gemm_proj_gflops", "GFLOP/s"},
	{"tensor.popcount_gbps", "GB/s"},
	{"manifold.forward_us", "us"},
	{"hdc.encode_us", "us"},
	{"hdlearn.score_us", "us"},
	{"cnn.pretrain_s", "s"},
	{"cnn.teacher_accuracy", "fraction"},
	{"core.extract_features_s", "s"},
	{"core.teacher_logits_s", "s"},
	{"core.hd_train_s", "s"},
	{"hdlearn.epoch_ms", "ms"},
	{"core.train_accuracy", "fraction"},
	{"dataset.synth_s", "s"},
	{"hwsim.rank_corr", "rho"},
	{"runtime.heap_inuse_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_share", "fraction"},
	{"trace.spans", "count"},
	{"calib.speed_factor", "ratio"},
}

// metrics holds one run's values by name.
type metrics map[string]float64

// record is the configuration that produced a run (ROADMAP aim 1: every
// number sits next to the config and git rev that produced it). It is
// written with the run's metrics under benchmark/out/.
type record struct {
	GitRev       string    `json:"git_rev"`
	GoVersion    string    `json:"go_version"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"nproc"`
	CPUFlags     []string  `json:"cpu_flags"`
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Traced       bool      `json:"traced"`
	Workload     *workload `json:"workload"`
	Stages       []string  `json:"engine_stages"`
	ModelVersion string    `json:"model_version"`
	Samples      int       `json:"samples"` // operations inside the measured interval
	Windows      int       `json:"windows"` // see summarize
	// Raw holds clock readings before the division by the speed factor
	// (calib.go), and the factor itself.
	Raw map[string]float64 `json:"raw,omitempty"`
}

func newRecord(w *workload, seed int64, seconds float64, traced bool) record {
	return record{
		GitRev:     gitRevision,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUFlags:   cpuFlags(),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Workload:   w,
	}
}

// gitRevision is set by run.sh at link time (-X main.gitRevision=...); a
// checkout that is not a git repository (the driver's), or a plain go run,
// has none.
var gitRevision = "unknown"

// cpuFlags lists the instruction-set flags the kernels gate on, read from
// /proc/cpuinfo where there is one.
func cpuFlags() []string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		have := make(map[string]bool)
		for _, f := range strings.Fields(line) {
			have[f] = true
		}
		for _, f := range []string{"ssse3", "popcnt", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512_vnni", "avx512_vpopcntdq"} {
			if have[f] {
				out = append(out, f)
			}
		}
		break
	}
	return out
}

// runResult is one finished run.
type runResult struct {
	metrics   metrics
	attempted int
	failed    int
	errs      []string
	record    record
	trace     *traceFile // traced runs only
	cal       *calibrator
	// stopTicker stops the calibrator's background ticker of the measuring
	// part of the run; it may be called more than once.
	stopTicker func()
}

// runOptions shrink a run for the smoke test; the zero value is the real
// benchmark.
type runOptions struct {
	setupReps int  // fixture builds per run; default 7
	noFiles   bool // do not write benchmark/out/
	outDir    string
}

func (o runOptions) reps() int {
	if o.setupReps > 0 {
		return o.setupReps
	}
	return 7
}

// run executes one workload once, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func run(w *workload, seed int64, seconds float64, traced bool, opt runOptions) (*runResult, error) {
	res := &runResult{metrics: metrics{}, record: newRecord(w, seed, seconds, traced), cal: &calibrator{}}
	var err error
	if w.Kind == kindTrain {
		err = runTrain(w, seed, seconds, traced, opt, res)
	} else {
		err = runServing(w, seed, seconds, traced, opt, res)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range res.defs() {
		// A layer off this workload's path is not measured and reads 0; an
		// end-to-end metric must have been.
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.Name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.Name, d.name, v)
		}
	}
	if !opt.noFiles {
		if err := res.write(opt.outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// correct: no operation failed (a wrong label, an error, an accuracy under
// the workload's floor).
func (r *runResult) correct() bool { return r.failed == 0 }

func (r *runResult) defs() []metricDef {
	if r.record.Traced {
		return perLayer
	}
	return endToEnd
}

func (r *runResult) line() resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		out.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// table prints every metric by name with its unit.
func (r *runResult) table(w io.Writer) {
	mode := "end to end, tracing off"
	if r.record.Traced {
		mode = "per layer, traced"
	}
	fmt.Fprintf(w, "%s (seed %d, %.3g s, %s): attempted %d, failed %d, failed_share %.4g, correct %v\n",
		r.record.Workload.Name, r.record.Seed, r.record.Seconds, mode, r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)), r.correct())
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
}

// outFile is what a run leaves under benchmark/out/.
type outFile struct {
	Record record `json:"record"`
	resultLine
	*traceFile
}

func (r *runResult) write(dir string) error {
	if dir == "" {
		dir = filepath.Join("benchmark", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "result_" + r.record.Workload.Name + ".json"
	if r.record.Traced {
		name = "trace_" + r.record.Workload.Name + ".json"
	}
	raw, err := json.MarshalIndent(outFile{r.record, r.line(), r.trace}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the images and the request order")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics, tracing off")
	aa := flag.Bool("aa", false, "run every workload twice and compare the two with BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
		os.Exit(2)
	}
	var err error
	switch {
	case *aa:
		err = runAA(*seed, *seconds)
	case *name == "all":
		err = runAll(*seed, *seconds)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one mode, the result as the
// last line of standard output. An incorrect run still prints its result
// and then exits non-zero.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := run(w, seed, seconds, traced, runOptions{})
	if err != nil {
		return err
	}
	res.table(os.Stderr)
	raw, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if !res.correct() {
		return fmt.Errorf("%s: incorrect run (%d of %d operations failed)", name, res.failed, res.attempted)
	}
	return nil
}

// runAll prints every metric of every workload, end to end and per layer.
func runAll(seed int64, seconds float64) error {
	bad := 0
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			res, err := run(w, seed, seconds, traced, runOptions{})
			if err != nil {
				return err
			}
			res.table(os.Stdout)
			if !res.correct() {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d incorrect runs", bad)
	}
	return nil
}
