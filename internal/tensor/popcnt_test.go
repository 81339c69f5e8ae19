package tensor

import (
	"math/bits"
	"math/rand"
	"testing"
)

func refXorPopcount(a, b []uint64) int {
	s := 0
	for w := range a {
		s += bits.OnesCount64(a[w] ^ b[w])
	}
	return s
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		switch rng.Intn(5) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = ^uint64(0)
		default:
			w[i] = rng.Uint64()
		}
	}
	return w
}

// TestXorPopcountMatchesScalar sweeps lengths across the asm threshold and
// the 4-word group boundary, including the degenerate all-zero/all-one words,
// with both kernels forced via popcntAsmMinWords.
func TestXorPopcountMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	saved := popcntAsmMinWords
	defer func() { popcntAsmMinWords = saved }()
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			a := randWords(rng, n)
			b := randWords(rng, n+rng.Intn(3)) // b may be longer
			want := refXorPopcount(a, b[:n])
			for _, min := range []int{0, 1 << 30} {
				popcntAsmMinWords = min
				if got := XorPopcount(a, b); got != want {
					t.Fatalf("XorPopcount(n=%d, min=%d) = %d, want %d", n, min, got, want)
				}
			}
		}
	}
}

// TestXorPopcountParallel hammers the vector kernel from concurrent
// goroutines over shared inputs — run under -race by the race gate — to pin
// that it is read-only and state-free.
func TestXorPopcountParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 64
	a := randWords(rng, n)
	b := randWords(rng, n)
	want := refXorPopcount(a, b)
	t.Run("group", func(t *testing.T) {
		for g := 0; g < 8; g++ {
			t.Run("", func(t *testing.T) {
				t.Parallel()
				for i := 0; i < 200; i++ {
					if got := XorPopcount(a, b); got != want {
						t.Fatalf("XorPopcount = %d, want %d", got, want)
					}
				}
			})
		}
	})
}
