//go:build race

package runcache

// The race detector's instrumentation allocates on paths that otherwise
// do not; allocation counts hold only without it.
func init() { raceEnabled = true }
