// Probe checkpoint measures what a cold sweep pays to share one warm-up
// among its settings: capturing a warmed 8x8 network at the sweep's
// operating point (once), encoding the snapshot (once), and decoding and
// forking it (once per setting), with the snapshot's size.
package main

import (
	"repro/benchmarks/internal/harness"
	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

const (
	batches = 10
	rate    = 4.0 // the operating point of the sweep workloads
	warm    = 40_000
	measure = 40_000
)

func main() {
	cfg := network.NewConfig()
	n, err := network.New(cfg)
	if err != nil {
		harness.Fatal(err)
	}
	model, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(rate), n.Topo)
	if err != nil {
		harness.Fatal(err)
	}
	horizon := sim.Time(warm+measure+1) * cfg.RouterPeriod
	tr := traffic.Capture(model, horizon)
	n.Launch(tr, horizon)
	n.SetDVSHold(true)
	n.Run(warm)

	var snap *checkpoint.Snapshot
	m := harness.Metrics{}
	m.Set("checkpoint.capture_ms", harness.MinPerOp(batches, 1, func() {
		if snap, err = checkpoint.Capture(n); err != nil {
			harness.Fatal(err)
		}
	})/1e6, "ms")
	var raw []byte
	m.Set("checkpoint.encode_ms", harness.MinPerOp(batches, 1, func() {
		if raw, err = checkpoint.Encode(snap); err != nil {
			harness.Fatal(err)
		}
	})/1e6, "ms")
	m.Set("checkpoint.decode_fork_ms", harness.MinPerOp(batches, 1, func() {
		got, err := checkpoint.Decode(raw)
		if err != nil {
			harness.Fatal(err)
		}
		if _, err := checkpoint.Fork(got, cfg, tr); err != nil {
			harness.Fatal(err)
		}
	})/1e6, "ms")
	m.Set("checkpoint.snapshot_kb", float64(len(raw))/1e3, "kB")
	harness.ProbeOutput{Metrics: m}.Emit()
}
