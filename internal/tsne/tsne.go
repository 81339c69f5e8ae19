// Package tsne implements exact t-SNE (van der Maaten & Hinton) with PCA
// initialization, used to reproduce the paper's explainability analysis
// (Fig. 11): 2-D projections of query hypervectors before and after NSHD
// training, where training visibly pulls each class into its own cluster.
// A k-nearest-neighbor purity metric quantifies the "clusters form" claim.
package tsne

import (
	"fmt"
	"math"
	"sort"

	"nshd/internal/tensor"
)

// Config controls the t-SNE optimization.
type Config struct {
	Perplexity float64
	Iters      int
	LR         float64
	// EarlyExaggeration multiplies P for the first quarter of the run.
	EarlyExaggeration float64
	Seed              int64
}

// DefaultConfig mirrors the common sklearn defaults scaled for small sets.
func DefaultConfig() Config {
	return Config{Perplexity: 20, Iters: 300, LR: 100, EarlyExaggeration: 8, Seed: 1}
}

// Validate rejects unusable configurations given n points.
func (c Config) Validate(n int) error {
	if n < 5 {
		return fmt.Errorf("tsne: need at least 5 points, have %d", n)
	}
	if c.Perplexity <= 1 || float64(n-1) < c.Perplexity {
		return fmt.Errorf("tsne: perplexity %v invalid for %d points", c.Perplexity, n)
	}
	if c.Iters < 10 {
		return fmt.Errorf("tsne: %d iterations too few", c.Iters)
	}
	if c.LR <= 0 {
		return fmt.Errorf("tsne: learning rate %v", c.LR)
	}
	return nil
}

// Embed computes a 2-D embedding of the [N, F] data.
func Embed(data *tensor.Tensor, cfg Config) (*tensor.Tensor, error) {
	if data.Rank() != 2 {
		return nil, fmt.Errorf("tsne: data rank %d, want 2", data.Rank())
	}
	n := data.Shape[0]
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}

	p := affinities(data, cfg.Perplexity)

	// PCA init, scaled small per the reference implementation.
	y := PCA2(data)
	normalizeInit(y)
	jitter := tensor.NewRNG(cfg.Seed)
	for i := range y.Data {
		y.Data[i] += float32(jitter.NormFloat64()) * 1e-4
	}

	gains := tensor.New(n, 2)
	gains.Fill(1)
	vel := tensor.New(n, 2)
	exagEnd := cfg.Iters / 4

	for iter := 0; iter < cfg.Iters; iter++ {
		exag := 1.0
		if iter < exagEnd {
			exag = cfg.EarlyExaggeration
		}
		grad, _ := gradient(p, y, exag)
		momentum := 0.5
		if iter >= exagEnd {
			momentum = 0.8
		}
		for i := range y.Data {
			// Adaptive gains as in the reference implementation.
			sameSign := (grad.Data[i] > 0) == (vel.Data[i] > 0)
			if sameSign {
				gains.Data[i] *= 0.8
			} else {
				gains.Data[i] += 0.2
			}
			if gains.Data[i] < 0.01 {
				gains.Data[i] = 0.01
			}
			vel.Data[i] = float32(momentum)*vel.Data[i] - float32(cfg.LR)*gains.Data[i]*grad.Data[i]
			y.Data[i] += vel.Data[i]
		}
		center(y)
	}
	return y, nil
}

// affinities computes the symmetrized, perplexity-calibrated joint
// distribution P over point pairs.
func affinities(data *tensor.Tensor, perplexity float64) *tensor.Tensor {
	n := data.Shape[0]
	d2 := pairwiseSq(data)
	p := tensor.New(n, n)
	logU := math.Log(perplexity)
	for i := 0; i < n; i++ {
		// Binary search beta = 1/(2σ²) to hit the target entropy.
		beta := 1.0
		betaMin, betaMax := math.Inf(-1), math.Inf(1)
		row := make([]float64, n)
		for tries := 0; tries < 50; tries++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = 0
					continue
				}
				row[j] = math.Exp(-float64(d2.At(i, j)) * beta)
				sum += row[j]
			}
			if sum == 0 {
				sum = 1e-12
			}
			var h float64
			for j := 0; j < n; j++ {
				if row[j] > 0 {
					pj := row[j] / sum
					h -= pj * math.Log(pj)
				}
			}
			diff := h - logU
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 {
				betaMin = beta
				if math.IsInf(betaMax, 1) {
					beta *= 2
				} else {
					beta = (beta + betaMax) / 2
				}
			} else {
				betaMax = beta
				if math.IsInf(betaMin, -1) {
					beta /= 2
				} else {
					beta = (beta + betaMin) / 2
				}
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			sum += row[j]
		}
		if sum == 0 {
			sum = 1e-12
		}
		for j := 0; j < n; j++ {
			p.Set(float32(row[j]/sum), i, j)
		}
	}
	// Symmetrize and normalize: P = (P + Pᵀ) / 2n, floored for stability.
	out := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64(p.At(i, j)+p.At(j, i)) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			out.Set(float32(v), i, j)
		}
	}
	return out
}

// gradient returns dKL/dY under Student-t low-dimensional affinities, and
// the KL value itself.
func gradient(p, y *tensor.Tensor, exaggeration float64) (*tensor.Tensor, float64) {
	n := y.Shape[0]
	// q_ij ∝ (1 + ||yi-yj||²)^-1
	num := tensor.New(n, n)
	var qsum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := float64(y.At(i, 0) - y.At(j, 0))
			dy := float64(y.At(i, 1) - y.At(j, 1))
			v := 1 / (1 + dx*dx + dy*dy)
			num.Set(float32(v), i, j)
			num.Set(float32(v), j, i)
			qsum += 2 * v
		}
	}
	if qsum == 0 {
		qsum = 1e-12
	}
	grad := tensor.New(n, 2)
	var kl float64
	for i := 0; i < n; i++ {
		var gx, gy float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pij := float64(p.At(i, j)) * exaggeration
			qij := math.Max(float64(num.At(i, j))/qsum, 1e-12)
			mult := (pij - qij) * float64(num.At(i, j))
			gx += 4 * mult * float64(y.At(i, 0)-y.At(j, 0))
			gy += 4 * mult * float64(y.At(i, 1)-y.At(j, 1))
			if exaggeration == 1 && float64(p.At(i, j)) > 1e-11 {
				kl += float64(p.At(i, j)) * math.Log(float64(p.At(i, j))/qij)
			}
		}
		grad.Set(float32(gx), i, 0)
		grad.Set(float32(gy), i, 1)
	}
	return grad, kl
}

func pairwiseSq(data *tensor.Tensor) *tensor.Tensor {
	n := data.Shape[0]
	out := tensor.New(n, n)
	for i := 0; i < n; i++ {
		ri := data.Row(i)
		for j := i + 1; j < n; j++ {
			rj := data.Row(j)
			var s float64
			for k := range ri {
				d := float64(ri[k] - rj[k])
				s += d * d
			}
			out.Set(float32(s), i, j)
			out.Set(float32(s), j, i)
		}
	}
	return out
}

func center(y *tensor.Tensor) {
	n := y.Shape[0]
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += float64(y.At(i, 0))
		my += float64(y.At(i, 1))
	}
	mx /= float64(n)
	my /= float64(n)
	for i := 0; i < n; i++ {
		y.Set(y.At(i, 0)-float32(mx), i, 0)
		y.Set(y.At(i, 1)-float32(my), i, 1)
	}
}

func normalizeInit(y *tensor.Tensor) {
	center(y)
	var std float64
	for _, v := range y.Data {
		std += float64(v) * float64(v)
	}
	std = math.Sqrt(std / float64(len(y.Data)))
	if std == 0 {
		return
	}
	scale := float32(1e-2 / std)
	y.Scale(scale)
}

// PCA2 projects [N, F] data onto its top two principal components using
// power iteration with deflation.
func PCA2(data *tensor.Tensor) *tensor.Tensor {
	n, f := data.Shape[0], data.Shape[1]
	// Center columns.
	x := data.Clone()
	for j := 0; j < f; j++ {
		var m float64
		for i := 0; i < n; i++ {
			m += float64(x.At(i, j))
		}
		m /= float64(n)
		for i := 0; i < n; i++ {
			x.Set(x.At(i, j)-float32(m), i, j)
		}
	}
	out := tensor.New(n, 2)
	rng := tensor.NewRNG(17)
	comp := make([][]float32, 0, 2)
	for c := 0; c < 2; c++ {
		v := make([]float32, f)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		for iter := 0; iter < 60; iter++ {
			// w = Xᵀ X v via two matvecs.
			xv := make([]float32, n)
			for i := 0; i < n; i++ {
				xv[i] = tensor.Dot(x.Row(i), v)
			}
			w := make([]float32, f)
			for i := 0; i < n; i++ {
				xi := x.Row(i)
				s := xv[i]
				for j := 0; j < f; j++ {
					w[j] += s * xi[j]
				}
			}
			// Deflate previous components.
			for _, prev := range comp {
				d := tensor.Dot(w, prev)
				for j := range w {
					w[j] -= d * prev[j]
				}
			}
			var norm float64
			for _, wv := range w {
				norm += float64(wv) * float64(wv)
			}
			norm = math.Sqrt(norm)
			if norm < 1e-12 {
				break
			}
			for j := range w {
				w[j] = float32(float64(w[j]) / norm)
			}
			v = w
		}
		comp = append(comp, v)
		for i := 0; i < n; i++ {
			out.Set(tensor.Dot(x.Row(i), v), i, c)
		}
	}
	return out
}

// KNNPurity measures how well same-label points cluster in an embedding:
// the mean fraction of each point's k nearest neighbors sharing its label.
// Chance level is the label distribution's self-collision rate.
func KNNPurity(y *tensor.Tensor, labels []int, k int) float64 {
	n := y.Shape[0]
	if k >= n {
		k = n - 1
	}
	type nd struct {
		d float64
		j int
	}
	var total float64
	for i := 0; i < n; i++ {
		ds := make([]nd, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := float64(y.At(i, 0) - y.At(j, 0))
			dy := float64(y.At(i, 1) - y.At(j, 1))
			ds = append(ds, nd{dx*dx + dy*dy, j})
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
		same := 0
		for _, e := range ds[:k] {
			if labels[e.j] == labels[i] {
				same++
			}
		}
		total += float64(same) / float64(k)
	}
	return total / float64(n)
}
