// Probe sim times the event kernel's hot path: one schedule and one
// dispatch with about a thousand events pending.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/sim"
)

const (
	batches = 12
	events  = 500_000
)

func main() {
	var s sim.Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.At(sim.Time(i), fn)
	}
	m := harness.Metrics{}
	m.Set("sim.sched_pushpop_ns", harness.MinPerOp(batches, events, func() {
		for i := 0; i < events; i++ {
			s.At(s.Now()+sim.Time(i%64)+1, fn)
			s.Step()
		}
	}), "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
