// Probe flow times what injecting one packet costs the allocator's side:
// a packet and its flit train taken from the pool and given back.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/flow"
)

const (
	batches = 12
	packets = 1_000_000
)

var sink int

func main() {
	var pool flow.Pool
	m := harness.Metrics{}
	m.Set("flow.packet_alloc_ns", harness.MinPerOp(batches, packets, func() {
		for i := 0; i < packets; i++ {
			p := pool.NewPacket(int64(i), 0, 1, 0, -1)
			sink += len(pool.Flits(p))
			pool.Recycle(p)
		}
	}), "ns")
	harness.ProbeOutput{Metrics: m}.Emit()
}
