package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestStreamMoments(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %g, want %g", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestStreamMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Stream
		sum := 0.0
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(len(xs)-1)
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Var()-v) < 1e-4*(1+v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 100) // 10 per bin
	}
	for i := 0; i < 10; i++ {
		if h.Count(i) != 10 {
			t.Errorf("bin %d = %d, want 10", i, h.Count(i))
		}
		if math.Abs(h.Fraction(i)-0.1) > 1e-12 {
			t.Errorf("fraction %d = %g", i, h.Fraction(i))
		}
	}
	// Clamping.
	h.Add(-5)
	h.Add(17)
	if h.Count(0) != 11 || h.Count(9) != 11 {
		t.Error("out-of-range values not clamped into end bins")
	}
	if h.Total() != 102 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(0, 1, 100)
	for i := 0; i < 1000; i++ {
		h.Add(0.25)
	}
	if math.Abs(h.Mean()-0.255) > 1e-9 { // center of the 0.25 bin
		t.Errorf("mean = %g", h.Mean())
	}
}

// TestHurstWhiteNoise: i.i.d. noise has H ~ 0.5.
func TestHurstWhiteNoise(t *testing.T) {
	rng := sim.NewRNG(42)
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	h := HurstAggVar(xs)
	if math.IsNaN(h) || h < 0.4 || h > 0.62 {
		t.Errorf("white-noise Hurst (agg var) = %g, want ~0.5", h)
	}
	h2 := HurstRS(xs)
	if math.IsNaN(h2) || h2 < 0.4 || h2 > 0.68 {
		t.Errorf("white-noise Hurst (R/S) = %g, want ~0.5-0.6", h2)
	}
}

// TestHurstLRD: counts from multiplexed Pareto ON/OFF sources (the paper's
// level-2 generator) must show H clearly above 0.5 — the defining LRD
// property.
func TestHurstLRD(t *testing.T) {
	rng := sim.NewRNG(7)
	const sources = 32
	const bins = 8192
	const binW = 100.0
	counts := make([]float64, bins)
	for s := 0; s < sources; s++ {
		t0 := 0.0
		on := s%2 == 0
		for t0 < bins*binW {
			var dur float64
			if on {
				dur = rng.Pareto(1.4, 30)
				// Emit one count per 10 time units while ON.
				for x := t0; x < t0+dur && x < bins*binW; x += 10 {
					counts[int(x/binW)]++
				}
			} else {
				dur = rng.Pareto(1.2, 30)
			}
			t0 += dur
			on = !on
		}
	}
	h := HurstAggVar(counts)
	if math.IsNaN(h) || h < 0.6 {
		t.Errorf("ON/OFF aggregate Hurst = %g, want > 0.6 (LRD)", h)
	}
}

func TestHurstShortSeries(t *testing.T) {
	if !math.IsNaN(HurstAggVar(make([]float64, 4))) {
		t.Error("short series should give NaN")
	}
	if !math.IsNaN(HurstRS(make([]float64, 8))) {
		t.Error("short series should give NaN (R/S)")
	}
}

func TestLatencyCollector(t *testing.T) {
	l := NewLatency(sim.Nanosecond)
	l.Add(100 * sim.Nanosecond)
	l.Add(300 * sim.Nanosecond)
	if l.N() != 2 || l.MeanCycles() != 200 {
		t.Errorf("mean = %g over %d", l.MeanCycles(), l.N())
	}
	if l.MaxCycles() != 300 {
		t.Errorf("max = %g", l.MaxCycles())
	}
	if l.Saturated(150) {
		t.Error("mean 200 vs zero-load 150: not saturated (2x rule)")
	}
	if !l.Saturated(99) {
		t.Error("mean 200 vs zero-load 99: saturated")
	}
}

func TestSaturationPoint(t *testing.T) {
	rates := []float64{0.2, 0.4, 0.6, 0.8}
	lats := []float64{100, 120, 190, 450}
	r, ok := SaturationPoint(rates, lats, 100)
	if !ok || r != 0.8 {
		t.Errorf("saturation = %g,%v; want 0.8,true", r, ok)
	}
	if _, ok := SaturationPoint(rates, []float64{100, 110, 120, 130}, 100); ok {
		t.Error("no saturation expected")
	}
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHistogram(1, 0, 10)
}

func TestLatencyQuantiles(t *testing.T) {
	l := NewLatency(sim.Nanosecond)
	// 1000 samples: 900 at ~100 cycles, 100 at ~1000 cycles.
	for i := 0; i < 900; i++ {
		l.Add(100 * sim.Nanosecond)
	}
	for i := 0; i < 100; i++ {
		l.Add(1000 * sim.Nanosecond)
	}
	if p50 := l.Quantile(0.5); math.Abs(p50-100) > 5 {
		t.Errorf("P50 = %g, want ~100", p50)
	}
	if p95 := l.Quantile(0.95); math.Abs(p95-1000) > 50 {
		t.Errorf("P95 = %g, want ~1000", p95)
	}
	if q := NewLatency(sim.Nanosecond).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
}

func TestLatencyQuantileMonotone(t *testing.T) {
	l := NewLatency(sim.Nanosecond)
	rng := sim.NewRNG(5)
	for i := 0; i < 10000; i++ {
		l.Add(sim.Duration(10+rng.Intn(100000)) * sim.Nanosecond)
	}
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		v := l.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %g: %g < %g", q, v, prev)
		}
		prev = v
	}
}
