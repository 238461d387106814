// Probe power times the per-snapshot accounting: the meter summing the
// energy of the 8x8 platform's 224 links.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/sim"
)

const (
	batches = 12
	reads   = 20_000
	links   = 224 // channels of the 8x8 mesh
)

var sink float64

func main() {
	table := link.MustTable(link.NewParams())
	var sched sim.Scheduler
	ls := make([]*link.DVSLink, links)
	for i := range ls {
		ls[i] = link.NewDVSLink(table, &sched, table.Top())
	}
	meter := power.NewMeter(table, ls, 0)
	var now sim.Time
	m := harness.Metrics{}
	m.Set("power.meter_energy_ns", harness.MinPerOp(batches, reads, func() {
		for i := 0; i < reads; i++ {
			now += sim.Microsecond
			sink += meter.EnergyJ(now)
		}
	}), "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
