// Probe runcache times the persistent result store: one put and one get
// of a result-sized payload, and opening a directory of 1000 entries
// through its index sidecar.
package main

import (
	"errors"
	"fmt"
	"os"

	"repro/benchmarks/internal/harness"
	"repro/internal/runcache"
)

const (
	batches = 10
	entries = 1000
)

func main() {
	dir, err := os.MkdirTemp("", "probe-runcache-")
	if err != nil {
		harness.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := runcache.Options{Fingerprint: "probe-runcache"}
	s, err := runcache.Open(dir, opts)
	if err != nil {
		harness.Fatal(err)
	}
	payload := make([]byte, 256)

	// Each batch writes fresh keys, so a put always creates an entry; the
	// last batch leaves the directory at `entries` entries for the open.
	const perBatch = entries / batches
	n := 0
	put := harness.MinPerOp(batches, perBatch, func() {
		for i := 0; i < perBatch; i++ {
			if err := s.Put(fmt.Sprintf("k%d", n), payload); err != nil {
				harness.Fatal(err)
			}
			n++
		}
	})
	get := harness.MinPerOp(batches, entries, func() {
		for i := 0; i < entries; i++ {
			if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
				harness.Fatal(fmt.Errorf("entry k%d missing", i))
			}
		}
	})
	open := harness.MinPerOp(batches, 1, func() {
		h, err := runcache.Open(dir, opts)
		if err != nil {
			harness.Fatal(err)
		}
		if !h.IndexLoaded() {
			harness.Fatal(errors.New("index sidecar not trusted: this would time the directory scan"))
		}
	})

	m := harness.Metrics{}
	m.Set("runcache.put_us", put/1e3, "us")
	m.Set("runcache.get_us", get/1e3, "us")
	m.Set("runcache.open_indexed_ms", open/1e6, "ms")
	harness.ProbeOutput{Metrics: m}.Emit()
}
