package tensor

import "testing"

// TestRNGStateNamesThePosition: RNGs of equal State draw the same values, and
// every draw, whatever method takes it, moves the State.
func TestRNGStateNamesThePosition(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	same := func() bool { return a.State() == b.State() }
	if !same() {
		t.Fatal("two RNGs of one seed start in different states")
	}
	for _, draw := range []func(g *RNG){
		func(g *RNG) { g.Float64() },
		func(g *RNG) { g.NormFloat64() },
		func(g *RNG) { g.Uint64() },
		func(g *RNG) { g.Perm(5) },
		func(g *RNG) { g.Fork() },
	} {
		s0 := a.State()
		if draw(a); a.State() == s0 {
			t.Fatal("a draw left the state as it was")
		}
		draw(b)
		if !same() || a.Int63() != b.Int63() {
			t.Fatal("RNGs of one seed and equal draws diverged")
		}
	}
	if NewRNG(6).State() == NewRNG(5).State() {
		t.Fatal("seeds 5 and 6 start in one state")
	}
}
