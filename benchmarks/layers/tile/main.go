// Probe tile measures internal/network's second, tile-parallel engine at
// the saturated operating point: one tile (its bookkeeping over the
// single-scheduler core) and two tiles with GOMAXPROCS=2 (the only real
// multi-core number this host can give), with the merges per cycle the
// two-tile run needed. No end-to-end workload runs tiled; these are the
// numbers that decide whether the engine is unified or deleted, and they
// mean what harness.nproc says they mean.
package main

import (
	"runtime"

	"repro/benchmarks/internal/harness"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

const (
	batches        = 10
	cyclesPerBatch = 4_000
	prime          = 5000
)

func tiled(tiles int) (nsPerCycle, barriersPerCycle float64) {
	cfg := network.NewConfig()
	cfg.Tiles = tiles
	n, err := network.New(cfg)
	if err != nil {
		harness.Fatal(err)
	}
	model, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(4.0), n.Topo)
	if err != nil {
		harness.Fatal(err)
	}
	horizon := sim.Time(prime+batches*cyclesPerBatch+2) * n.Cfg.RouterPeriod
	n.Launch(traffic.Capture(model, horizon), horizon)
	n.Run(prime)
	before := n.SkipStats()
	ns := harness.MinPerOp(batches, cyclesPerBatch, func() { n.Run(cyclesPerBatch) })
	after := n.SkipStats()
	return ns, float64(after.TileBarriers-before.TileBarriers) / float64(batches*cyclesPerBatch)
}

func main() {
	m := harness.Metrics{}
	runtime.GOMAXPROCS(1)
	ns, _ := tiled(1)
	m.Set("network.tiled1_ns_per_cycle", ns, "ns")
	runtime.GOMAXPROCS(2)
	ns, barriers := tiled(2)
	m.Set("network.tiled2_ns_per_cycle", ns, "ns")
	m.Set("network.tiled2_barriers_per_cycle", barriers, "1/cycle")
	harness.ProbeOutput{Metrics: m}.Emit()
}
