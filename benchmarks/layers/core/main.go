// Probe core times one history window of Algorithm 1, in floating point
// and in the fixed-point hardware model. With 256 ports deciding once per
// 200 cycles it is predicted invisible end to end; it is recorded to keep
// it so.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/core"
)

const (
	batches = 12
	windows = 1_000_000
)

func main() {
	m := harness.Metrics{}
	h, err := core.NewHistoryDVS(core.DefaultParams())
	if err != nil {
		harness.Fatal(err)
	}
	m.Set("core.decide_ns", harness.MinPerOp(batches, windows, func() {
		for i := 0; i < windows; i++ {
			h.Decide(core.Measures{LinkUtil: float64(i%100) / 100, BufUtil: float64(i%50) / 100})
		}
	}), "ns")
	hw := &core.HWHistoryDVS{P: core.DefaultParams()}
	m.Set("core.decide_hw_ns", harness.MinPerOp(batches, windows, func() {
		for i := 0; i < windows; i++ {
			hw.Decide(core.Measures{LinkUtil: float64(i%100) / 100, BufUtil: float64(i%50) / 100})
		}
	}), "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
