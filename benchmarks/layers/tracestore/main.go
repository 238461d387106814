// Probe tracestore measures the arrival-trace codec and its persistent
// store: decoding and validating a stored trace, the bytes one arrival
// costs on disk, and one save and load through the store. No end-to-end
// workload installs the store, so these are the numbers that decide
// whether it is kept.
package main

import (
	"fmt"
	"os"

	"repro/benchmarks/internal/harness"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/traffic/tracestore"
)

const (
	batches = 10
	horizon = 20 * sim.Microsecond
)

func main() {
	model, err := traffic.NewTwoLevel(traffic.NewTwoLevelParams(1.0), topology.NewMesh2D(8))
	if err != nil {
		harness.Fatal(err)
	}
	enc := traffic.Capture(model, horizon).Encoded()
	raw := enc.Bytes()
	arrivals := float64(enc.Len())

	decode := harness.MinPerOp(batches, 1, func() {
		got, err := tracestore.Decode(raw)
		if err == nil {
			err = got.Validate()
		}
		if err == nil {
			_, err = got.DecodeAll()
		}
		if err != nil {
			harness.Fatal(err)
		}
	})

	dir, err := os.MkdirTemp("", "probe-tracestore-")
	if err != nil {
		harness.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rc, err := runcache.Open(dir, runcache.Options{Fingerprint: "probe-tracestore"})
	if err != nil {
		harness.Fatal(err)
	}
	store := tracestore.NewStore(rc)
	i := 0
	saveLoad := harness.MinPerOp(batches, 1, func() {
		i++
		key := fmt.Sprintf("trace-%d", i)
		if err := store.Save(key, enc); err != nil {
			harness.Fatal(err)
		}
		if got, ok := store.Load(key); !ok || got.Len() != enc.Len() {
			harness.Fatal(fmt.Errorf("trace %s did not load back", key))
		}
	})

	m := harness.Metrics{}
	m.Set("tracestore.decode_ns_per_arrival", decode/arrivals, "ns")
	m.Set("tracestore.bytes_per_arrival", float64(len(raw))/arrivals, "bytes")
	m.Set("tracestore.save_load_ms", saveLoad/1e6, "ms")
	harness.ProbeOutput{Metrics: m}.Emit()
}
