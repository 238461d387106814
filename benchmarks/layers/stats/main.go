// Probe stats times the per-delivery accounting: one latency sample into
// the running moments and the log histogram.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
)

const (
	batches = 12
	samples = 1_000_000
)

func main() {
	l := stats.NewLatency(sim.Nanosecond)
	m := harness.Metrics{}
	m.Set("stats.latency_add_ns", harness.MinPerOp(batches, samples, func() {
		for i := 0; i < samples; i++ {
			l.Add(sim.Duration(20+i%4000) * sim.Nanosecond)
		}
	}), "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
