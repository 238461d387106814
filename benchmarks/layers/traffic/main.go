// Probe traffic times the two ways a simulation gets its arrivals: live
// two-level generation captured into a trace (what a point's set-up and a
// cold sweep pay once), and replay of that trace through a scheduler (what
// every simulation pays).
package main

import (
	"fmt"

	"repro/benchmarks/internal/harness"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	batches = 10
	horizon = 20 * sim.Microsecond // some 20 000 arrivals at rate 1.0
)

func main() {
	topo := topology.NewMesh2D(8)
	p := traffic.NewTwoLevelParams(1.0)
	var tr *traffic.Trace
	capture := harness.MinPerOp(batches, 1, func() {
		model, err := traffic.NewTwoLevel(p, topo)
		if err != nil {
			harness.Fatal(err)
		}
		tr = traffic.Capture(model, horizon)
	})
	replay := harness.MinPerOp(batches, 1, func() {
		var sched sim.Scheduler
		got := 0
		tr.Launch(&sched, horizon, func(int, int, sim.Time, int64) { got++ })
		sched.RunUntil(horizon)
		if got != tr.Len() {
			harness.Fatal(fmt.Errorf("replayed %d of %d arrivals", got, tr.Len()))
		}
	})
	arrivals := float64(tr.Len())
	m := harness.Metrics{}
	m.Set("traffic.capture_ns_per_arrival", capture/arrivals, "ns")
	m.Set("traffic.replay_ns_per_arrival", replay/arrivals, "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
