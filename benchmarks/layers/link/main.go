// Probe link times the DVS link's two operations: serialising one flit,
// and one completed transition step with the scheduler events it raises
// (reported per down-and-up pair).
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/link"
	"repro/internal/sim"
)

const batches = 12

func main() {
	table := link.MustTable(link.NewParams())
	m := harness.Metrics{}

	const sends = 1_000_000
	var sched sim.Scheduler
	l := link.NewDVSLink(table, &sched, table.Top())
	var now sim.Time
	m.Set("link.send_ns", harness.MinPerOp(batches, sends, func() {
		for i := 0; i < sends; i++ {
			now += sim.Nanosecond
			l.Send(now)
		}
	}), "ns")

	// Walk down the table and bounce back up, one completed transition per
	// step; a pair is two steps.
	const steps = 20_000
	var tsched sim.Scheduler
	tl := link.NewDVSLink(table, &tsched, table.Top())
	up := false
	m.Set("link.transition_pair_us", 2*harness.MinPerOp(batches, steps, func() {
		for i := 0; i < steps; i++ {
			if tl.Level() == 0 {
				up = true
			} else if tl.Level() == table.Top() {
				up = false
			}
			tl.RequestStep(tsched.Now(), up)
			tsched.RunUntil(tsched.Now() + 15*sim.Microsecond)
		}
	})/1e3, "us")

	harness.ProbeOutput{Metrics: m}.Emit()
}
