//go:build race

package exp

// The race detector's instrumentation allocates on paths that otherwise
// do not; allocation bounds hold only without it.
func init() { raceEnabled = true }
