// Probe audit measures what the runtime invariant checker costs: one
// saturated point with Config.Audit over the same point without.
package main

import (
	"fmt"
	"time"

	"repro/benchmarks/internal/harness"
	"repro/noc"
)

const (
	batches = 3
	warm    = 5_000
	measure = 10_000
)

func point(audit bool) float64 {
	cfg := noc.DefaultConfig()
	cfg.Audit = audit
	w := noc.TwoLevelWorkload{Rate: 4.0, Tasks: 100, TaskDuration: time.Millisecond}
	return harness.MinPerOp(batches, 1, func() {
		n, err := noc.NewWarmedTwoLevel(cfg, w, warm, measure, false)
		if err != nil {
			harness.Fatal(err)
		}
		n.Measure(measure)
		if st, ok := n.AuditStats(); ok != audit || st.Violations != 0 {
			harness.Fatal(fmt.Errorf("audit=%v: stats %+v, present %v", audit, st, ok))
		}
	})
}

func main() {
	m := harness.Metrics{}
	m.Set("audit.overhead_x", point(true)/point(false), "x")
	harness.ProbeOutput{Metrics: m}.Emit()
}
