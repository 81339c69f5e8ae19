// Package gate is the module TestNoTestOnlyExportsGate runs the gate on.
package gate

import "gate/internal/lib"

// Value is public API: its methods pass the gate with no caller.
type Value = lib.Value
