// Package stats provides the measurement machinery behind the paper's
// evaluation: streaming moments, the utilization histograms of Figures 3-5,
// binned time series for the temporal-variance plots, Hurst-exponent
// estimators to validate the self-similar workload, and the saturation
// detector implementing the paper's throughput definition.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Stream accumulates streaming mean and variance (Welford's algorithm).
// The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the observation count.
func (s *Stream) N() int64 { return s.n }

// Mean reports the running mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Var reports the running sample variance (0 for fewer than 2 points).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std reports the sample standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Var()) }

// Min and Max report the observed extremes (0 when empty).
func (s *Stream) Min() float64 { return s.min }
func (s *Stream) Max() float64 { return s.max }

// StreamState is the complete serializable state of a Stream, exposed so a
// simulation checkpoint can capture in-progress accumulators exactly. The
// moments are raw float64 values; restoring them bit-for-bit reproduces the
// stream's future outputs bit-for-bit.
type StreamState struct {
	N    int64
	Mean float64
	M2   float64
	Min  float64
	Max  float64
}

// Checkpoint captures the stream's state.
func (s *Stream) Checkpoint() StreamState {
	return StreamState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// Restore overwrites the stream with a checkpoint.
func (s *Stream) Restore(st StreamState) error {
	if st.N < 0 {
		return fmt.Errorf("stats: stream with negative count %d", st.N)
	}
	s.n, s.mean, s.m2, s.min, s.max = st.N, st.Mean, st.M2, st.Min, st.Max
	return nil
}

// Histogram bins observations over a fixed range; out-of-range values clamp
// into the end bins, so counts are never lost.
type Histogram struct {
	lo, hi float64
	counts []int64
	total  int64
}

// NewHistogram covers [lo, hi) with bins equal-width buckets.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g)/%d", lo, hi, bins))
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int64, bins)}
}

// Add incorporates one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
}

// Bins reports the bin count.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count reports one bin's tally.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// Total reports all observations.
func (h *Histogram) Total() int64 { return h.total }

// Fraction reports one bin's share of all observations.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// BinCenter reports the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.counts))
	return h.lo + (float64(i)+0.5)*w
}

// Mean reports the histogram's mean using bin centers.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0.0
	for i, c := range h.counts {
		sum += float64(c) * h.BinCenter(i)
	}
	return sum / float64(h.total)
}

// histogramJSON is the serialized form of a Histogram: the persistent run
// cache stores characterization histograms across processes, so the
// unexported state needs an explicit wire shape.
type histogramJSON struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int64 `json:"counts"`
	Total  int64   `json:"total"`
}

// MarshalJSON implements json.Marshaler. Bounds and counts are exact
// (float64 round-trips losslessly through JSON), so a decoded histogram
// renders byte-identically to the one that was stored.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Lo: h.lo, Hi: h.hi, Counts: h.counts, Total: h.total})
}

// UnmarshalJSON implements json.Unmarshaler, validating the invariants
// NewHistogram enforces plus count consistency.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Counts) < 1 || w.Hi <= w.Lo {
		return fmt.Errorf("stats: invalid histogram [%g,%g)/%d", w.Lo, w.Hi, len(w.Counts))
	}
	var sum int64
	for _, c := range w.Counts {
		if c < 0 {
			return fmt.Errorf("stats: negative histogram count %d", c)
		}
		sum += c
	}
	if sum != w.Total {
		return fmt.Errorf("stats: histogram total %d != count sum %d", w.Total, sum)
	}
	h.lo, h.hi, h.counts, h.total = w.Lo, w.Hi, w.Counts, w.Total
	return nil
}
