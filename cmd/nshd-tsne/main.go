// Command nshd-tsne exports the Fig. 11 explainability data: it trains an
// NSHD model, embeds the test queries' hypervectors with t-SNE before and
// after training, and writes both embeddings as CSV (x, y, label, stage) for
// external plotting.
//
//	nshd-tsne -model effnetb0 -layer 7 -out fig11.csv -cache .cache
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"nshd"
	"nshd/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		model = flag.String("model", "effnetb0", "zoo model")
		layer = flag.Int("layer", 7, "cut layer")
		out   = flag.String("out", "fig11.csv", "output CSV path")
		cache = flag.String("cache", ".cache", "teacher cache directory")
		v     = flag.Bool("v", false, "verbose")
	)
	flag.Parse()

	env := experiments.Quick()
	env.CacheDir = *cache
	if *v {
		env.Log = os.Stderr
	}
	env.Manifest = os.Stdout
	fmt.Println(nshd.RunManifest("preset", "quick", "seed", env.Seed, "d", env.D))
	s := experiments.NewSession(env)
	res, table, err := s.Fig11(*model, *layer)
	if err != nil {
		log.Fatal(err)
	}
	table.Render(os.Stdout)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"x", "y", "label", "stage"}); err != nil {
		log.Fatal(err)
	}
	dump := func(emb interface{ At(...int) float32 }, stage string) {
		for i, lbl := range res.Labels {
			rec := []string{
				strconv.FormatFloat(float64(emb.At(i, 0)), 'g', 6, 64),
				strconv.FormatFloat(float64(emb.At(i, 1)), 'g', 6, 64),
				strconv.Itoa(lbl),
				stage,
			}
			if err := w.Write(rec); err != nil {
				log.Fatal(err)
			}
		}
	}
	dump(res.Before, "before")
	dump(res.After, "after")
	fmt.Printf("wrote %d points to %s\n", 2*len(res.Labels), *out)
}
