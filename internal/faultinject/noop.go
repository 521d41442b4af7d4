//go:build !faultinject

package faultinject

// In production builds (no `faultinject` tag) every hook is an inlinable
// no-op: instrumented call sites compile to nothing and the registry is
// absent from the binary. CI greps for the armed-build marker string to
// verify that.

// Enabled reports whether this binary was built with failpoint support.
func Enabled() bool { return false }

// Eval is a no-op in production builds.
func Eval(name string) error { return nil }

// Set is a no-op in production builds.
func Set(name string, fp Failpoint) {}

// Clear is a no-op in production builds.
func Clear(name string) {}

// Reset is a no-op in production builds.
func Reset() {}

// Hits always reports zero in production builds.
func Hits(name string) int { return 0 }

// Fired always reports zero in production builds.
func Fired(name string) int { return 0 }

// SetFromEnv is a no-op in production builds.
func SetFromEnv(env string) error { return nil }
