// Package libtest is a helper that only tests may import.
package libtest

// Helper has no caller, and passes because its package is a test helper.
func Helper() {}
