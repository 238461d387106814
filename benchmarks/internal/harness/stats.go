// Package harness holds what the benchmark driver, the repeatability tool
// and the per-layer probes share: order statistics, in-memory spans, the
// metric and result-line formats, host readings, and the code that builds
// and runs a probe. It imports nothing from the simulator, so no change to
// the simulator can break it.
package harness

import (
	"math"
	"sort"
)

// Summary is what one series of repeated timings reduces to. The simulator
// is deterministic, so every rep of a workload is identical work and host
// noise can only add time: Min is the estimate of the cost, Median and P90
// describe the phase the host was in.
type Summary struct {
	Min, Median, P90 float64
	N                int
}

// Summarize reduces a non-empty series.
func Summarize(xs []float64) Summary {
	return Summary{Min: Min(xs), Median: Median(xs), P90: Quantile(xs, 0.9), N: len(xs)}
}

// Min reports the smallest value, or NaN for an empty series.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Median reports the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile reports the q-quantile (0 <= q <= 1) by linear interpolation
// between the two nearest order statistics, or NaN for an empty series.
// The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Quartiles reports the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method: position
// q*(n+1) in the 1-based order statistics, clamped to the ends), because
// that is the rule the spread of a metric is judged by.
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1 // 0-based
		if pos <= 0 {
			// Python extrapolates from the first two points; so do we.
			return s[0] + pos*(s[1]-s[0])
		}
		if pos >= float64(len(s)-1) {
			over := pos - float64(len(s)-1)
			return s[len(s)-1] + over*(s[len(s)-1]-s[len(s)-2])
		}
		lo := int(math.Floor(pos))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// Spread reports (Q3-Q1)/median, the share by which a metric's runs
// disagree.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}
