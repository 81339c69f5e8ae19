// Command nshd-info inspects the model zoo: per-model unit indices, the
// feature dimension and inference cost of every possible cut point, and the
// paper's chosen cut layers.
//
//	nshd-info                       # summary of all models
//	nshd-info -model vgg16          # per-layer detail
//	nshd-info -pipeline model.gob   # serving facts for a trained snapshot
package main

import (
	"flag"
	"fmt"
	"os"

	"nshd"
)

func main() {
	model := flag.String("model", "", "show per-layer detail for one model")
	classes := flag.Int("classes", 10, "class count (affects head size)")
	pipeline := flag.String("pipeline", "", "print serving facts for a trained pipeline snapshot (nshd-train -out)")
	packed := flag.Bool("packed", true, "with -pipeline: compile the packed popcount classifier")
	flag.Parse()

	if *pipeline != "" {
		if err := servingFacts(*pipeline, *packed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *model != "" {
		if err := detail(*model, *classes); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("GEMM kernels on this machine: %s\n", nshd.KernelISA())
	fmt.Printf("%-12s %8s %12s %12s %s\n", "model", "units", "params", "MACs", "paper cut layers")
	for _, name := range nshd.ModelNames() {
		m, err := nshd.BuildModel(name, 1, *classes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := m.FullStats()
		fmt.Printf("%-12s %8d %12d %12d %v\n", name, len(m.Units), s.Params, s.MACs, nshd.PaperLayers(name))
	}
}

// servingFacts compiles a snapshot into a frozen engine and prints what an
// operator needs to deploy it behind nshd-serve: input/batch shape, memory
// per replica, and batcher sizing derived from the compiled chunk size.
func servingFacts(path string, packed bool) error {
	p, err := nshd.LoadPipeline(path)
	if err != nil {
		return err
	}
	p.Cfg.PackedInference = packed
	eng, err := nshd.Compile(p)
	if err != nil {
		return err
	}
	kernel := "float32 dot-product"
	if packed {
		kernel = "packed popcount"
	}
	in := eng.InShape()
	fmt.Printf("serving facts for %s\n", path)
	fmt.Printf("  %-22s [C H W] = %v  (%d float32/sample)\n", "input shape", in, eng.SampleLen())
	fmt.Printf("  %-22s [%d %d %d %d]  (engine chunk %d)\n", "expected batch shape",
		eng.ChunkSize(), in[0], in[1], in[2], eng.ChunkSize())
	floor, minBatch := eng.SplitRule()
	fmt.Printf("  %-22s batches of >= %d images use every core (floor %d extractor MACs a part)\n", "batch split", minBatch, floor)
	fmt.Printf("  %-22s D=%d, %d classes\n", "hypervector space", eng.Dim(), eng.Classes())
	fmt.Printf("  %-22s %016x\n", "model version", eng.ModelVersion())
	fmt.Printf("  %-22s %s\n", "classifier kernel", kernel)
	fmt.Printf("  %-22s %s\n", "GEMM kernels", nshd.KernelISA())
	fmt.Printf("  %-22s %d bytes resident, per stage:\n", "serving weights", eng.ModelBytes())
	for _, b := range eng.BytesBreakdown() {
		fmt.Printf("  %-22s %12d  %s\n", "", b.Bytes, b.Name)
	}
	fmt.Printf("  %-22s %d bytes/worker\n", "arena footprint", eng.ArenaBytes())
	fmt.Printf("  %-22s %v\n", "stages", eng.Stages())
	// Measured batch-1 stage latency with per-layer / per-fused-block detail:
	// one synthetic zero sample (compute cost is pixel-independent), min of 5
	// repetitions per stage.
	if times, err := eng.TimeStages(nshd.NewTensor(1, in[0], in[1], in[2]), 5); err == nil {
		fmt.Printf("  %-22s batch-1, min of 5 reps:\n", "stage latency")
		for _, st := range times {
			fmt.Printf("  %-22s %10.1fus  %s\n", "", st.Seconds*1e6, st.Name)
			for _, sub := range st.Sub {
				fmt.Printf("  %-22s %10.1fus      %s\n", "", sub.Seconds*1e6, sub.Name)
			}
		}
	}
	fmt.Printf("  %-22s MaxBatch=%d MaxDelay=1ms QueueCap=%d  (nshd-serve defaults)\n",
		"batcher sizing", eng.ChunkSize(), 4*eng.ChunkSize())
	return nil
}

func detail(name string, classes int) error {
	m, err := nshd.BuildModel(name, 1, classes)
	if err != nil {
		return err
	}
	paper := map[int]bool{}
	for _, l := range nshd.PaperLayers(name) {
		paper[l] = true
	}
	fmt.Printf("%s (input %v, %d classes)\n", name, m.InShape, classes)
	fmt.Printf("%6s  %-26s %10s %12s %12s %6s\n", "index", "unit", "features", "cut params", "cut MACs", "paper")
	for _, u := range m.Units {
		f, err := m.FeatureDim(u.Index)
		if err != nil {
			return err
		}
		cs, err := m.CutStats(u.Index)
		if err != nil {
			return err
		}
		mark := ""
		if paper[u.Index] {
			mark = "*"
		}
		fmt.Printf("%6d  %-26s %10d %12d %12d %6s\n", u.Index, u.Label, f, cs.Params, cs.MACs, mark)
	}
	full := m.FullStats()
	fmt.Printf("%6s  %-26s %10s %12d %12d\n", "", "full model (teacher)", "-", full.Params, full.MACs)
	return nil
}
