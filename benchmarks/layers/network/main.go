// Probe network measures the single-scheduler engine: constructing the
// 8x8 platform, and a cycle of Run on a replayed two-level trace at the
// saturated and the near-idle operating point (the StepSaturation and
// StepLowLoad rows of the BENCH_pr4..pr10 reports, continued). It then
// replays one rep of the point the driver names, call by call through the
// layer functions the noc facade makes, with a span around each: that
// splits a point into capture, construct, warm-up and measure from
// outside the program.
package main

import (
	"errors"
	"flag"
	"time"

	"repro/benchmarks/internal/harness"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const batches = 10

// stepNS reports the cheapest batch's cost of one cycle of Run at the
// given rate, after priming the pipelines.
func stepNS(rate float64, cyclesPerBatch int64) float64 {
	const prime = 5000
	n, err := network.New(network.NewConfig())
	if err != nil {
		harness.Fatal(err)
	}
	model, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(rate), n.Topo)
	if err != nil {
		harness.Fatal(err)
	}
	horizon := sim.Time(prime+batches*cyclesPerBatch+2) * n.Cfg.RouterPeriod
	n.Launch(traffic.Capture(model, horizon), horizon)
	n.Run(prime)
	return harness.MinPerOp(batches, int(cyclesPerBatch), func() { n.Run(cyclesPerBatch) })
}

func main() {
	rate := flag.Float64("rate", 4.0, "aggregate packets/cycle of the replayed point")
	taskDur := flag.Duration("taskdur", time.Millisecond, "mean task duration of the replayed point")
	warm := flag.Int64("warm", 10_000, "warm-up cycles of the replayed point")
	meas := flag.Int64("meas", 20_000, "measured cycles of the replayed point")
	seed := flag.Uint64("seed", 1, "seed of the replayed point")
	flag.Parse()
	tr := harness.NewTracer() // at the start, so span times count from the process's own

	m := harness.Metrics{}
	m.Set("network.new_ms", harness.MinPerOp(batches, 1, func() {
		if _, err := network.New(network.NewConfig()); err != nil {
			harness.Fatal(err)
		}
	})/1e6, "ms")
	m.Set("network.step_sat_ns_per_cycle", stepNS(4.0, 4_000), "ns")
	m.Set("network.step_low_ns_per_cycle", stepNS(0.05, 100_000), "ns")

	// The replay mirrors noc.NewWarmedTwoLevel(reuse=false) + noc.Measure.
	root := tr.Start("point-replay", nil, 0)
	cfg := network.NewConfig()
	cfg.Seed = *seed
	p := traffic.NewTwoLevelParams(*rate)
	p.AvgTaskDuration = sim.Time(taskDur.Nanoseconds()) * sim.Nanosecond
	p.Seed = *seed
	horizon := sim.Time(*warm+*meas+1) * cfg.RouterPeriod

	sp := tr.Start("traffic.Capture", root, 0)
	model, err := traffic.NewTwoLevel(p, topology.New(cfg.K, cfg.N, cfg.Torus))
	if err != nil {
		harness.Fatal(err)
	}
	trace := traffic.Capture(model, horizon)
	sp.End()

	sp = tr.Start("network.New", root, 0)
	n, err := network.New(cfg)
	sp.End()
	if err != nil {
		harness.Fatal(err)
	}
	sp = tr.Start("network.Launch", root, 0)
	n.Launch(trace, horizon)
	n.SetDVSHold(true)
	sp.End()
	sp = tr.Start("network.Run(warm-up)", root, 0)
	n.Run(*warm)
	sp.End()
	sp = tr.Start("network.BeginMeasurement", root, 0)
	n.SetDVSHold(false)
	n.BeginMeasurement()
	sp.End()
	sp = tr.Start("network.Run(measure)", root, 0)
	n.Run(*meas)
	sp.End()
	sp = tr.Start("network.Snapshot", root, 0)
	res := n.Snapshot()
	sp.End()
	root.End()
	if res.DeliveredPkts <= 0 || res.DeliveredPkts > res.InjectedPkts {
		harness.Fatal(errors.New("replayed point delivered no packets, or more than it injected"))
	}

	harness.ProbeOutput{Metrics: m, Spans: tr.Spans()}.Emit()
}
