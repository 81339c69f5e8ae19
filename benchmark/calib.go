package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This sandbox's vCPUs change speed under the benchmark, each on its own, by
// up to 2x, for seconds to minutes: over two minutes the same
// Engine.PredictInto loop read a median of 469 µs, then 677 µs, then 470 µs
// again (a 44 % range between 10-second blocks), and a scalar loop that
// shares no code with the program slowed by the same factor at the same
// moments (the ratio of the two stayed within 2.9 %). No statistic of a
// 10-second run survives that, so every timing the benchmark reports is
// divided by the speed factor of the interval it was measured in — the
// calibration loop's time, sampled in that interval, over calRefUs — and
// every rate multiplied by it. A value therefore reads "at the sandbox's fast
// speed"; the clock's readings and the factor are in the result file.
// README.md has the numbers.

// calRefUs is the calibration loop's median time, in µs, on this sandbox in
// its fast state. It only fixes the scale of the reported numbers.
const calRefUs = 9.0

var calA, calB = func() (a, b [4096]float32) {
	for i := range a {
		a[i], b[i] = float32(i%7)+0.5, float32(i%5)+0.25
	}
	return
}()

// calSink keeps the calibration loop's result alive; concurrent samplers
// store to it.
var calSink atomic.Uint32

// calibrate runs the fixed scalar loop once and returns its time in µs:
// eight 4096-element float32 dot products, four accumulators, L1-resident.
func calibrate() float64 {
	t0 := time.Now()
	var sum float32
	for r := 0; r < 8; r++ {
		var s0, s1, s2, s3 float32
		for j := 0; j < len(calA); j += 4 {
			s0 += calA[j] * calB[j]
			s1 += calA[j+1] * calB[j+1]
			s2 += calA[j+2] * calB[j+2]
			s3 += calA[j+3] * calB[j+3]
		}
		sum += s0 + s1 + s2 + s3
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	calSink.Store(math.Float32bits(sum))
	return us
}

// calibrator collects calibration samples for the whole run, so that any
// interval of it has a speed factor. Two sources feed it. A background
// ticker samples every calBackground (calSetup during set-up): it is what reads the machine while a
// long call keeps both cores busy (a fixture build, a 512-image Predict, the
// training calls), where samples taken in the idle gap between two calls did
// not follow the calls' speed at all. And each load client samples between
// its own operations, at most every calEvery, on the thread and at the
// moment the operation ran: with the ticker alone, and a 2 ms period, the
// one-client HTTP workload got noisier, not steadier (its wake-ups disturbed
// the server and read the idle core).
type calibrator struct {
	mu sync.Mutex
	at []time.Time // ascending
	us []float64
}

// calEvery is the least time between two samples on one load client: 20 µs
// of calibration per 2 ms is one percent of its loop. calBackground is
// the ticker's period while a load or a long call is measured; calSetup is
// its period during the fixture builds, which last a few hundred ms, hold
// nothing a wake-up could disturb, and need more samples than 10 ms gives.
const (
	calEvery      = 2 * time.Millisecond
	calBackground = 10 * time.Millisecond
	calSetup      = 2 * time.Millisecond
)

// sample reads the calibration loop on the calling goroutine and, at the
// same time, on a fresh goroutine per other processor, which an idle core
// picks up: one reading of every core's speed, not only of the core the
// caller happens to be on. A reading is the better of two passes: the first
// pass on a core that was idle runs on cold caches and read up to three
// times the second.
func (c *calibrator) sample() {
	read := func() { c.record(min(calibrate(), calibrate())) }
	var wg sync.WaitGroup
	for g := 1; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read()
		}()
	}
	read()
	wg.Wait()
}

// own reads only the calling goroutine's core. The kernel and stage timings
// of a traced run are single-threaded loops beside an idle core, whose
// reading (slow: it has just been woken) says nothing about them; they run
// with the background ticker stopped and sample with own.
func (c *calibrator) own() { c.record(min(calibrate(), calibrate())) }

func (c *calibrator) record(us float64) {
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.us = append(c.us, us)
	c.mu.Unlock()
}

// background samples every period until the returned stop function is
// called; stop waits for the sampling goroutine to exit and may be called
// again.
func (c *calibrator) background(period time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// factor is the machine's slowdown over [from, to): calRefUs over the
// calibration time, averaged as a rate over the interval's samples. The two vCPUs change
// speed independently (pinned loops read 10.6–21.3 µs on one while the other
// held 17 µs), the samples come from both, and work spread over both
// proceeds at their mean rate; a sample stretched by an interrupt weighs
// little in a mean of rates. An interval that holds fewer than three samples
// borrows the nearest ones around it.
func (c *calibrator) factor(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from) })
	hi := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(to) })
	for hi-lo < 3 && (lo > 0 || hi < len(c.at)) {
		if lo > 0 {
			lo--
		}
		if hi < len(c.at) {
			hi++
		}
	}
	if hi == lo {
		return 1
	}
	var rate float64
	for _, us := range c.us[lo:hi] {
		rate += calRefUs / us
	}
	return float64(hi-lo) / rate
}

// norm converts a duration measured from t0 until now to reference speed.
func (c *calibrator) norm(t0 time.Time, seconds float64) float64 {
	return seconds / c.factor(t0, time.Now())
}
