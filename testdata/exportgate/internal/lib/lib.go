// Package lib declares one function of each kind the gate must pass or flag.
package lib

// Used has a non-test caller.
func Used() int { return helper() }

func helper() int { return 1 }

// Planted calls only itself, and no non-test file calls it.
func Planted(n int) int {
	if n == 0 {
		return 0
	}
	return Planted(n - 1)
}

// Allowed is on the gate's allowlist.
func Allowed() {}

// twin is called only by a file this platform's build leaves out.
func twin() int { return 2 }

// Value is aliased by the module's root package.
type Value struct{}

// Facade is public through the alias.
func (Value) Facade() {}

// Speaker is an interface a command uses.
type Speaker interface{ Speak() string }

// Impl satisfies Speaker and error.
type Impl struct{}

func (Impl) Speak() string { return "" }

func (*Impl) Error() string { return "" }

// Planted is a method no non-test file calls.
func (Impl) Planted() {}
