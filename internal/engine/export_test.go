package engine

import "testing"

// SetSplitFloor sets the batch split's work floor (MACs per part) for engines
// compiled during the test, so small fixtures reach both sides of it.
func SetSplitFloor(t testing.TB, macs int64) {
	saved := splitMinMACs
	splitMinMACs = macs
	t.Cleanup(func() { splitMinMACs = saved })
}
