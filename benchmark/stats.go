package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation as its caller saw it.
type sample struct {
	end    time.Duration // completion time since the load phase started
	lat    time.Duration
	images int
}

// quantile reads the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loadStats summarizes the measured part of a load phase. Times and rates
// are at reference speed (see calib.go); raw* are as the clock read them.
type loadStats struct {
	p50Ms, p95Ms, p99Ms float64
	imagesPerS          float64
	rawP50Ms, rawRate   float64
	speedFactor         float64 // median over the windows
	windows             int
}

// samplePad widens an operation's own interval when its slowdown is looked
// up, so that a sub-millisecond operation still has calibration samples.
const samplePad = 10 * time.Millisecond

// minWindowSamples is the fewest operations a window may hold: p95 then has
// at least ten samples beyond it (choosing-metrics guide, section 1).
const minWindowSamples = 200

// summarize cuts the measured interval [from, to) into up to ten equal
// windows of at least minWindowSamples operations each, computes the
// quantiles and the throughput per window and reports the median window.
// One descheduled second on this shared 2-core VM then moves one window, not
// the run's result. Too few operations for two windows give one window over
// the whole interval. speed(lo, hi) is the machine's slowdown over [lo, hi)
// (calib.go): each latency is divided by the slowdown around its own
// operation (samplePad either side; on ten recorded runs of online_single
// that left p95 a spread of 5.3 % where one factor per window left 9.6 % and
// the clock's readings 13 %), each window's rate multiplied by the window's.
func summarize(samples []sample, from, to time.Duration, speed func(lo, hi time.Duration) float64) loadStats {
	var kept []sample
	for _, s := range samples {
		if s.end >= from && s.end < to {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		// A run too short for its warm-up (the smoke test): use everything.
		kept, from = samples, 0
		for _, s := range samples {
			to = max(to, s.end+1)
		}
	}
	if len(kept) == 0 {
		return loadStats{}
	}
	w := len(kept) / minWindowSamples
	if w > 10 {
		w = 10
	}
	if w < 1 {
		w = 1
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].end < kept[j].end })
	span := (to - from) / time.Duration(w)
	var p50, p95, p99, rate, rawP50, rawRate, factors []float64
	for i, lo := 0, 0; i < w; i++ {
		hi := lo
		for hi < len(kept) && (i == w-1 || kept[hi].end < from+span*time.Duration(i+1)) {
			hi++
		}
		win := kept[lo:hi]
		lo = hi
		if len(win) == 0 {
			continue
		}
		// Throughput is counted between the window's first and last
		// completion, so it is not quantized to whole operations per window;
		// a lone operation gives its own rate.
		lats, raw := make([]float64, len(win)), make([]float64, len(win))
		images := 0
		for j, s := range win {
			raw[j] = float64(s.lat.Nanoseconds()) / 1e6
			lats[j] = raw[j] / speed(s.end-s.lat-samplePad, s.end+samplePad)
			if j > 0 {
				images += s.images
			}
		}
		sort.Float64s(lats)
		sort.Float64s(raw)
		f := speed(from+span*time.Duration(i), from+span*time.Duration(i+1))
		r := float64(win[0].images) / win[0].lat.Seconds()
		if len(win) > 1 {
			r = float64(images) / (win[len(win)-1].end - win[0].end).Seconds()
		}
		p50 = append(p50, quantile(lats, 0.50))
		p95 = append(p95, quantile(lats, 0.95))
		p99 = append(p99, quantile(lats, 0.99))
		rate = append(rate, r*f)
		rawP50 = append(rawP50, quantile(raw, 0.50))
		rawRate = append(rawRate, r)
		factors = append(factors, f)
	}
	return loadStats{
		p50Ms:       median(p50),
		p95Ms:       median(p95),
		p99Ms:       median(p99),
		imagesPerS:  median(rate),
		rawP50Ms:    median(rawP50),
		rawRate:     median(rawRate),
		speedFactor: median(factors),
		windows:     len(p50),
	}
}

// spearman is the rank correlation of two equally long series, ties ranked
// by their mean position. Fewer than three points give 0.
func spearman(x, y []float64) float64 {
	n := len(x)
	if n < 3 || len(y) != n {
		return 0
	}
	rx, ry := ranks(x), ranks(y)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = mean
		}
		i = j + 1
	}
	return r
}
