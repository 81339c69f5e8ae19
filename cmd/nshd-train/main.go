// Command nshd-train trains an NSHD model end to end — synthetic (or real
// CIFAR) data, teacher pretraining, HD distillation — and saves the trained
// pipeline.
//
//	nshd-train -model mobilenetv2 -layer 17 -out model.gob -cache .cache
//	nshd-train -model effnetb0 -layer 7 -cifar10 data_batch_1.bin -test-cifar10 test_batch.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"nshd"
	"nshd/internal/nn"
)

func main() {
	log.SetFlags(0)
	var (
		model      = flag.String("model", "mobilenetv2", "zoo model: "+strings.Join(nshd.ModelNames(), ", "))
		layer      = flag.Int("layer", -1, "cut layer (-1 = deepest paper layer)")
		classes    = flag.Int("classes", 10, "synthetic class count")
		trainN     = flag.Int("train", 384, "synthetic training samples")
		testN      = flag.Int("test", 192, "synthetic test samples")
		noise      = flag.Float64("noise", 0.3, "synthetic pixel noise")
		cifar10    = flag.String("cifar10", "", "comma-separated real CIFAR-10 train batches (overrides synthetic)")
		cifarTest  = flag.String("test-cifar10", "", "real CIFAR-10 test batch")
		d          = flag.Int("d", 3000, "hypervector dimension")
		fhat       = flag.Int("fhat", 100, "manifold output features")
		alpha      = flag.Float64("alpha", 0.7, "distillation alpha")
		temp       = flag.Float64("temp", 15, "distillation temperature")
		hdEpochs   = flag.Int("hd-epochs", 10, "HD retraining epochs")
		batch      = flag.Int("batch", 0, "training batch size (0 = config default)")
		preEpochs  = flag.Int("pretrain-epochs", 12, "teacher pretraining epochs")
		seed       = flag.Int64("seed", 1, "seed")
		cache      = flag.String("cache", ".cache", "teacher cache directory")
		out        = flag.String("out", "", "path to save the trained pipeline (gob)")
		baselineHD = flag.Bool("baseline", false, "train the BaselineHD variant instead (no manifold/KD)")
	)
	flag.Parse()
	fmt.Println(nshd.RunManifest("seed", *seed, "d", *d))

	var train, test *nshd.Dataset
	var err error
	if *cifar10 != "" {
		train, err = nshd.LoadCIFAR10(strings.Split(*cifar10, ",")...)
		if err != nil {
			log.Fatal(err)
		}
		if *cifarTest == "" {
			log.Fatal("-test-cifar10 required with -cifar10")
		}
		test, err = nshd.LoadCIFAR10(*cifarTest)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := nshd.SynthConfig{
			Classes: *classes, Train: *trainN, Test: *testN,
			Size: 32, Noise: *noise, Seed: *seed,
		}
		train, test = nshd.SynthCIFAR(cfg)
	}
	means, stds := train.Normalize()
	test.ApplyNormalization(means, stds)

	zoo, err := nshd.BuildModel(*model, *seed, train.Classes)
	if err != nil {
		log.Fatal(err)
	}
	cut := *layer
	if cut < 0 {
		layers := nshd.PaperLayers(*model)
		cut = layers[len(layers)-1]
	}

	pcfg := nshd.DefaultPretrainConfig()
	pcfg.Epochs = *preEpochs
	pcfg.CacheDir = *cache
	pcfg.Log = os.Stderr
	fmt.Fprintf(os.Stderr, "pretraining %s teacher...\n", *model)
	start := time.Now()
	trainAcc, cached, err := nshd.Pretrain(zoo, train, pcfg, nshd.NewRNG(*seed+7))
	if err != nil {
		log.Fatal(err)
	}
	source := "trained"
	if cached {
		source = "cached"
	}
	fmt.Printf("# teacher: %s/%d %s %.1f s\n", *model, train.Classes, source, time.Since(start).Seconds())
	cnnAcc := nn.Evaluate(zoo.Full(), test.Images, test.Labels, 32)
	fmt.Printf("teacher: train %.3f test %.3f (cached=%v)\n", trainAcc, cnnAcc, cached)

	cfg := nshd.DefaultConfig(cut, train.Classes)
	cfg.D = *d
	cfg.FHat = *fhat
	cfg.Alpha = *alpha
	cfg.Temp = *temp
	cfg.Epochs = *hdEpochs
	cfg.Seed = *seed
	if *batch > 0 {
		cfg.BatchSize = *batch
	}

	var p *nshd.Pipeline
	if *baselineHD {
		p, err = nshd.NewBaselineHD(zoo, cfg)
	} else {
		p, err = nshd.New(zoo, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.Train(train, os.Stderr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NSHD@%d: test accuracy %.3f (CNN %.3f)\n", cut, p.Accuracy(test), cnnAcc)
	costs := p.Costs()
	cnnMACs, _ := p.CNNCosts()
	fmt.Printf("inference: %d MACs vs CNN %d (%.1f%% saved), model %d bytes\n",
		costs.TotalMACs(), cnnMACs,
		100*(1-float64(costs.TotalMACs())/float64(cnnMACs)), costs.TotalBytes())

	if *out != "" {
		if err := p.Save(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved pipeline to %s\n", *out)
	}
}
