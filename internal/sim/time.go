// Package sim provides the deterministic discrete-event simulation kernel
// shared by every subsystem of the reproduction: a picosecond time base, a
// binary-heap event queue, and a seeded random number generator so that
// every experiment is exactly reproducible.
package sim

import "fmt"

// Time is an absolute simulation instant in integer picoseconds.
//
// A picosecond base lets a 1 GHz router clock (1000 ps) and link clocks at
// arbitrary DVS frequencies (for example 8000 ps at 125 MHz) coexist without
// rounding drift over the multi-million-cycle runs the paper performs.
type Time int64

// Handy time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Infinity is a sentinel far beyond any reachable simulation instant.
const Infinity Time = 1<<63 - 1

// Duration is a span of simulation time in picoseconds.
type Duration = Time

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) * 1e-12 }
