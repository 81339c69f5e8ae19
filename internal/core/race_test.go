//go:build race

package core_test

// raceDetector reports a build with the race detector, under which sync.Pool
// drops returned items at random.
const raceDetector = true
