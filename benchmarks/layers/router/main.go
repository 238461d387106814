// Probe router times one allocation cycle of a 5-port router: loaded, with
// a full input port routed to one output, and idle, with nothing buffered.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/flow"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
)

const (
	batches = 12
	ticks   = 100_000
)

func main() {
	m := harness.Metrics{}

	r, err := router.New(0, router.NewConfig(5))
	if err != nil {
		harness.Fatal(err)
	}
	r.RouteFn = func(_ *flow.Packet, buf []routing.MaskCandidate) []routing.MaskCandidate {
		return append(buf, routing.MaskCandidate{Port: 2, VCMask: 0b11})
	}
	pkt := flow.NewPacket(1, 0, 1, 0, -1)
	refill := func(now sim.Time) {
		for _, f := range flow.NewPacketFlits(pkt) {
			f.VC = 0
			r.Inputs[1].Arrive(f, now)
		}
	}
	// A batch is the ticks that drain one refill after another; refilling
	// and returning credits are part of the loop, as arrivals and credits
	// are part of a loaded router's cycle.
	var now sim.Time
	refill(now)
	m.Set("router.tick_loaded_ns", harness.MinPerOp(batches, ticks, func() {
		for i := 0; i < ticks; i++ {
			now += sim.Nanosecond
			r.Tick(now, sim.Nanosecond)
			if r.Inputs[1].Occupied() == 0 {
				for _, ov := range []int{0, 1} {
					for r.Outputs[2].OccupiedSlots() > 0 {
						r.Outputs[2].ReturnCredit(ov, now)
					}
				}
				refill(now)
			}
		}
	}), "ns")

	idle, err := router.New(1, router.NewConfig(5))
	if err != nil {
		harness.Fatal(err)
	}
	now = 0
	m.Set("router.tick_idle_ns", harness.MinPerOp(batches, ticks, func() {
		for i := 0; i < ticks; i++ {
			now += sim.Nanosecond
			idle.Tick(now, sim.Nanosecond)
		}
	}), "ns")

	harness.ProbeOutput{Metrics: m}.Emit()
}
